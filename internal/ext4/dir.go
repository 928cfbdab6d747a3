package ext4

import (
	"encoding/binary"
	"fmt"
)

// Directories hold ext2-style variable-length entries:
//
//	{ ino u32, recLen u16, nameLen u8, fileType u8, name ... }
//
// recLen always reaches the next entry (or the end of the block); deleting
// an entry merges its space into the predecessor's recLen, exactly like
// the real filesystem. Directory size is always a whole number of blocks.

const (
	direntHeader = 8
	ftypeFile    = 1
	ftypeDir     = 2
	direntMinRec = direntHeader + 4 // room for short names, keeps walks sane
)

// direntAt decodes the entry at off in a directory block. name aliases
// blk, so directory walks compare names without allocating.
func direntAt(blk []byte, off int) (ino uint32, recLen int, name []byte, ftype byte, ok bool) {
	if off+direntHeader > len(blk) {
		return 0, 0, nil, 0, false
	}
	le := binary.LittleEndian
	ino = le.Uint32(blk[off:])
	recLen = int(le.Uint16(blk[off+4:]))
	nameLen := int(blk[off+6])
	ftype = blk[off+7]
	if recLen < direntMinRec || off+recLen > len(blk) || off+direntHeader+nameLen > off+recLen {
		return 0, 0, nil, 0, false
	}
	name = blk[off+direntHeader : off+direntHeader+nameLen]
	return ino, recLen, name, ftype, true
}

// putDirent encodes an entry.
func putDirent(blk []byte, off int, ino uint32, recLen int, name string, ftype byte) {
	le := binary.LittleEndian
	le.PutUint32(blk[off:], ino)
	le.PutUint16(blk[off+4:], uint16(recLen))
	blk[off+6] = byte(len(name))
	blk[off+7] = ftype
	copy(blk[off+direntHeader:], name)
}

// direntSpace is the aligned space a name of nameLen bytes needs.
func direntSpace(nameLen int) int {
	return (direntHeader + nameLen + 3) &^ 3
}

// dirInit writes the initial "." and ".." entries of a new directory.
func (fs *FS) dirInit(ino, parent uint32, in *inode) error {
	fs.curIno = ino
	blk := make([]byte, BlockSize)
	putDirent(blk, 0, ino, 12, ".", ftypeDir)
	putDirent(blk, 12, parent, BlockSize-12, "..", ftypeDir)
	if err := fs.writeFileBlock(in, 0, blk); err != nil {
		return err
	}
	in.size = BlockSize
	return fs.writeInode(ino, in)
}

// dirScan walks every entry of a directory, calling fn with the block
// buffer, block index and entry offset. Returning done=true stops the
// walk.
func (fs *FS) dirScan(ino uint32, in *inode, fn func(blk []byte, fileBlk uint64, off int, ino uint32, recLen int, name []byte, ftype byte) (done bool, err error)) error {
	fs.curIno = ino
	nBlocks := in.size / BlockSize
	buf := make([]byte, BlockSize)
	for b := uint64(0); b < nBlocks; b++ {
		if err := fs.readFileBlock(in, b, buf); err != nil {
			return err
		}
		off := 0
		for off < BlockSize {
			entIno, recLen, name, ftype, ok := direntAt(buf, off)
			if !ok {
				return fmt.Errorf("ext4: corrupt directory %d (block %d, offset %d)", ino, b, off)
			}
			done, err := fn(buf, b, off, entIno, recLen, name, ftype)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			off += recLen
		}
	}
	return nil
}

// dirLookup finds name in the directory, returning its inode number.
func (fs *FS) dirLookup(ino uint32, in *inode, name string) (uint32, error) {
	var found uint32
	err := fs.dirScan(ino, in, func(_ []byte, _ uint64, _ int, entIno uint32, _ int, entName []byte, _ byte) (bool, error) {
		if entIno != 0 && string(entName) == name {
			found = entIno
			return true, nil
		}
		return false, nil
	})
	if err != nil {
		return 0, err
	}
	if found == 0 {
		return 0, ErrNotFound
	}
	return found, nil
}

// dirAdd inserts an entry, extending the directory by a block if no slot
// has room.
func (fs *FS) dirAdd(ino uint32, in *inode, name string, child uint32, ftype byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	need := direntSpace(len(name))
	inserted := false
	err := fs.dirScan(ino, in, func(blk []byte, fileBlk uint64, off int, entIno uint32, recLen int, entName []byte, _ byte) (bool, error) {
		// Space after the live entry (or a dead entry's whole record).
		used := 0
		if entIno != 0 {
			used = direntSpace(len(entName))
		}
		if recLen-used < need {
			return false, nil
		}
		if entIno != 0 {
			// Split: shrink the live entry, append the new one.
			binary.LittleEndian.PutUint16(blk[off+4:], uint16(used))
			putDirent(blk, off+used, child, recLen-used, name, ftype)
		} else {
			putDirent(blk, off, child, recLen, name, ftype)
		}
		fs.curIno = ino
		if err := fs.writeFileBlock(in, fileBlk, blk); err != nil {
			return false, err
		}
		inserted = true
		return true, nil
	})
	if err != nil {
		return err
	}
	if inserted {
		return nil
	}
	// Extend with a fresh block holding just this entry.
	fs.curIno = ino
	blk := make([]byte, BlockSize)
	putDirent(blk, 0, child, BlockSize, name, ftype)
	newIdx := in.size / BlockSize
	if err := fs.writeFileBlock(in, newIdx, blk); err != nil {
		return err
	}
	in.size += BlockSize
	return fs.writeInode(ino, in)
}

// dirRemove deletes name's entry by merging it into its predecessor (or
// zeroing its inode when it leads a block).
func (fs *FS) dirRemove(ino uint32, in *inode, name string) error {
	removed := false
	var prevOff, prevRec = -1, 0
	var prevBlk uint64
	err := fs.dirScan(ino, in, func(blk []byte, fileBlk uint64, off int, entIno uint32, recLen int, entName []byte, _ byte) (bool, error) {
		if entIno != 0 && string(entName) == name {
			le := binary.LittleEndian
			if prevOff >= 0 && prevBlk == fileBlk {
				// Merge into predecessor.
				le.PutUint16(blk[prevOff+4:], uint16(prevRec+recLen))
			} else {
				// First entry of the block: mark dead.
				le.PutUint32(blk[off:], 0)
			}
			fs.curIno = ino
			if err := fs.writeFileBlock(in, fileBlk, blk); err != nil {
				return false, err
			}
			removed = true
			return true, nil
		}
		if prevBlk != fileBlk {
			prevOff = -1
		}
		prevOff, prevRec, prevBlk = off, recLen, fileBlk
		return false, nil
	})
	if err != nil {
		return err
	}
	if !removed {
		return ErrNotFound
	}
	return nil
}

// dirIsEmpty reports whether a directory holds only "." and "..".
func (fs *FS) dirIsEmpty(ino uint32, in *inode) (bool, error) {
	empty := true
	err := fs.dirScan(ino, in, func(_ []byte, _ uint64, _ int, entIno uint32, _ int, name []byte, _ byte) (bool, error) {
		if entIno != 0 && string(name) != "." && string(name) != ".." {
			empty = false
			return true, nil
		}
		return false, nil
	})
	return empty, err
}

// dirList returns the live entries (excluding "." and "..").
func (fs *FS) dirList(ino uint32, in *inode) ([]DirEntry, error) {
	var out []DirEntry
	err := fs.dirScan(ino, in, func(_ []byte, _ uint64, _ int, entIno uint32, _ int, name []byte, ftype byte) (bool, error) {
		if entIno != 0 && string(name) != "." && string(name) != ".." {
			out = append(out, DirEntry{Ino: entIno, Name: string(name), IsDir: ftype == ftypeDir})
		}
		return false, nil
	})
	return out, err
}
