package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestRunOutputPinned pins ftlhammer's full stdout, byte for byte, for
// small runs of each path the command drives: the leak campaign, the
// campaign with REF-synchronized decoys against TRR, a many-sided
// pattern against a one-entry sampler, and a victim-zoo pipeline run.
func TestRunOutputPinned(t *testing.T) {
	cases := []struct {
		args string
		want string
	}{
		{"-cycles 2 -spray 256 -triples 2",
			"4f5b5e1856ce8e5122024ce1d65fc0692ce33dc872f5b788f49e33f2ac97968d"},
		{"-cycles 2 -spray 256 -triples 2 -mitigation trr -sync-decoys",
			"63afd2f4622be33e02b7535e657b95bb91ab51079d3116e9fa1f6bf021962a11"},
		{"-pattern many:4 -mitigation trr:1 -cycles 1 -spray 256 -triples 2",
			"76891b2c4d55e3db0d82c8a5002e26156cdbf83946ce00cfd60ef3498ca9b208"},
		{"-victim kv -iterations 4000",
			"0210d13b78fa095115685042c446100f73eb9b112e9990fa428f2a6aa95bb33e"},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 0 {
				t.Fatalf("run = %d, want 0; stderr:\n%s", code, stderr.String())
			}
			sum := sha256.Sum256(stdout.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("stdout hash %s, want %s; stdout:\n%s", got, tc.want, stdout.String())
			}
		})
	}
}

func TestRunFlagAndConfigErrors(t *testing.T) {
	cases := []struct {
		args string
		want int
	}{
		{"-no-such-flag", 2},
		{"-metrics csv", 1},
		{"-profile granite", 1},
		{"-mitigation tinfoil", 1},
		{"-fault-rate 1.5", 1},
		{"-pattern zigzag", 1},
		{"-victim nobody -iterations 1", 1},
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != tc.want {
				t.Errorf("run(%s) = %d, want %d; stderr:\n%s", tc.args, code, tc.want, stderr.String())
			}
		})
	}
}
