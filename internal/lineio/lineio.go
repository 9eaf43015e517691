// Package lineio holds the JSON-line framing discipline shared by every
// wire protocol of this repository: the serve daemon (PROTOCOL.md), which is
// also what a sweep worker runs on stdio, and the sweep coordinator that
// drives it (the same one-request-per-line, one-response-per-line framing
// uPIMulator uses to drive BookSim2 as an external timing process).
// Centralising the scanner construction pins one line-size budget for every
// transport, so a batch accepted by one layer is never rejected by another.
package lineio

import (
	"bufio"
	"io"
)

const (
	// MaxLineBytes bounds one protocol line. A million-query batch verb
	// line runs to ~16 MB of tuples, and a 32x32 wcet-map result to a few
	// MB; 64 MB leaves headroom without letting one line exhaust memory.
	MaxLineBytes = 64 << 20

	// initialBufBytes is the scanner's starting buffer; it grows on demand
	// up to MaxLineBytes, so short-line streams never pay for the ceiling.
	initialBufBytes = 64 << 10
)

// NewScanner returns a newline-splitting scanner sized for protocol lines:
// a 64 KiB initial buffer growing up to MaxLineBytes.
func NewScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, initialBufBytes), MaxLineBytes)
	return sc
}

// WriteLine writes one protocol line — body plus terminator — as a single
// Write call, so concurrent writers on the same stream (a worker's response
// goroutines, a client's attempts) can never interleave a torn frame, and a
// crash between body and newline cannot occur. The body must not itself
// contain a newline.
func WriteLine(w io.Writer, body []byte) error {
	line := make([]byte, 0, len(body)+1)
	line = append(line, body...)
	line = append(line, '\n')
	_, err := w.Write(line)
	return err
}
