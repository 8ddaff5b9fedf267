package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Pinned output digests. The default export is what `entobench sweep
// -json` prints for the full suite on the Table IV boards; a POST
// /v1/sweep with an empty query answers the same bytes. The small
// query is the request example of docs/server.md's curl walkthrough,
// {"kernels":["madgwick"],"archs":"M4"}.
const (
	defaultExportSHA256 = "4a54795acf77d598854f368ce87e3adc53c266932efbed51190abda748e4bcef" // 119,664 bytes

	pinnedSmallKernel = "madgwick"
	pinnedSmallArchs  = "M4"
	pinnedSmallSHA256 = "d539e34306853bf2e74466518ee12e6afeff27080bcf6f75b1b91efdd02055fe" // 2,338 bytes
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest fails unless b hashes to want.
func checkDigest(what string, b []byte, want string) error {
	if got := digest(b); got != want {
		return fmt.Errorf("%s: sha256 %s (%d bytes), want %s", what, got, len(b), want)
	}
	return nil
}

// checkSame fails unless got is byte-identical to want, naming the
// first differing offset.
func checkSame(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("%s: output differs from the reference at byte %d (%d vs %d bytes)", what, i, len(got), len(want))
}
