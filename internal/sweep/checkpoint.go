package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"unicode/utf8"

	"repro/internal/scenario"
)

// GridKey fingerprints an expanded spec grid: the hex SHA-256 over every
// spec's canonical JSON, newline-separated, in grid order. A checkpoint
// records the key of the grid it was taken against, so resuming with a
// different grid (changed flags, different expansion) is rejected instead
// of silently splicing results from two different experiments.
func GridKey(specs []scenario.Spec) (string, error) {
	h := sha256.New()
	for _, s := range specs {
		raw, err := scenario.CanonicalJSON(s)
		if err != nil {
			return "", fmt.Errorf("sweep: grid key: %w", err)
		}
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkpointVersion is the on-disk checkpoint format version; bump on any
// incompatible change so stale files are rejected, not misread.
const checkpointVersion = 1

// checkpointHeader is the first line of a checkpoint file.
type checkpointHeader struct {
	Version int    `json:"version"`
	Total   int    `json:"total"`
	Grid    string `json:"grid"`
}

// checkpointEntry marks one finished grid index and the SHA-256 of its
// result record, so resume can verify the result stream actually holds the
// bytes the checkpoint claims were durable.
type checkpointEntry struct {
	Index int    `json:"index"`
	Hash  string `json:"hash"`
}

// CheckpointWriter appends finished-scenario entries to a checkpoint
// stream. The caller (JSONLSink) serialises Mark calls and orders each one
// after its result write.
type CheckpointWriter struct {
	w io.Writer
}

// NewCheckpointWriter writes the header line for a grid of the given total
// size and key, returning a writer for the per-scenario entries.
func NewCheckpointWriter(w io.Writer, total int, grid string) (*CheckpointWriter, error) {
	line, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Total: total, Grid: grid})
	if err != nil {
		return nil, fmt.Errorf("sweep: checkpoint header: %w", err)
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("sweep: checkpoint header: %w", err)
	}
	return &CheckpointWriter{w: w}, nil
}

// Mark records grid index i as finished with the given result hash.
func (c *CheckpointWriter) Mark(i int, hash string) error {
	line, err := json.Marshal(checkpointEntry{Index: i, Hash: hash})
	if err != nil {
		return fmt.Errorf("sweep: checkpoint entry %d: %w", i, err)
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: checkpoint entry %d: %w", i, err)
	}
	return nil
}

// Resume is the recovered state of an interrupted sweep: for every grid
// index confirmed done (checkpoint entry present AND the result stream
// holds a record whose hash matches), the raw marshalled scenario.Result
// bytes from disk. Raw bytes are kept verbatim — never re-marshalled — so
// a resumed sweep's merged output is byte-identical to an uninterrupted
// run.
type Resume struct {
	Raw map[int]json.RawMessage
}

// Done reports whether grid index i was confirmed finished.
func (r *Resume) Done(i int) bool {
	if r == nil {
		return false
	}
	_, ok := r.Raw[i]
	return ok
}

// Result unmarshals the recovered result for index i.
func (r *Resume) Result(i int) (scenario.Result, error) {
	var res scenario.Result
	if err := json.Unmarshal(r.Raw[i], &res); err != nil {
		return res, fmt.Errorf("sweep: resume result %d: %w", i, err)
	}
	return res, nil
}

// scanLines reads every newline-terminated line of a file. A final
// unterminated fragment — the signature of a process killed mid-write — is
// returned separately so callers can ignore exactly that and reject any
// other malformation.
func scanLines(path string) (lines [][]byte, torn []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			torn = data
			break
		}
		lines = append(lines, data[:nl])
		data = data[nl+1:]
	}
	return lines, torn, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields, so a checkpoint
// line of the wrong shape reads as corruption, not as a zero value.
func strictUnmarshal(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// LoadResume recovers the state of an interrupted sweep from its output
// and checkpoint files. A missing checkpoint file is a fresh start (nil
// state, no error), so -resume can be passed unconditionally in restart
// loops. A checkpoint that exists but is malformed, has the wrong version,
// or was taken against a different grid or total is rejected with an
// error — resuming across experiments must never splice silently. Only
// the final line of either file may be torn (killed mid-write); it is
// ignored. Entries whose result record is missing or hash-mismatched are
// treated as not done and recomputed.
func LoadResume(outPath, ckptPath string, total int, grid string) (*Resume, error) {
	if !utf8.ValidString(grid) {
		// The header's JSON would carry U+FFFD, so no checkpoint, not even
		// the one RewriteCheckpoint writes, could match this key.
		return nil, fmt.Errorf("sweep: checkpoint grid key %q is not valid UTF-8", grid)
	}
	ckLines, ckTorn, err := scanLines(ckptPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	_ = ckTorn // a torn final entry is simply not confirmed done
	if len(ckLines) == 0 {
		// Killed before the header hit the disk: nothing was done, but the
		// result stream the resumed run appends to must still parse, as it
		// must once RewriteCheckpoint has written the header.
		return confirmResults(outPath, nil)
	}
	var hdr checkpointHeader
	if err := strictUnmarshal(ckLines[0], &hdr); err != nil {
		return nil, fmt.Errorf("sweep: corrupt checkpoint %s: bad header: %w", ckptPath, err)
	}
	if hdr.Version != checkpointVersion {
		return nil, fmt.Errorf("sweep: checkpoint %s: version %d, want %d", ckptPath, hdr.Version, checkpointVersion)
	}
	if hdr.Total != total {
		return nil, fmt.Errorf("sweep: checkpoint %s: grid size %d, this sweep has %d", ckptPath, hdr.Total, total)
	}
	if hdr.Grid != grid {
		return nil, fmt.Errorf("sweep: checkpoint %s was taken against a different spec grid", ckptPath)
	}
	want := make(map[int]string, len(ckLines)-1)
	for n, line := range ckLines[1:] {
		var e checkpointEntry
		if err := strictUnmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("sweep: corrupt checkpoint %s: entry %d: %w", ckptPath, n+1, err)
		}
		if e.Index < 0 || e.Index >= total {
			return nil, fmt.Errorf("sweep: corrupt checkpoint %s: entry %d: index %d outside grid of %d",
				ckptPath, n+1, e.Index, total)
		}
		want[e.Index] = e.Hash // last entry wins
	}
	return confirmResults(outPath, want)
}

// confirmResults recovers, from the result stream, the result of every
// index whose record hashes to the checkpoint's hash for it in want.
func confirmResults(outPath string, want map[int]string) (*Resume, error) {
	raw := make(map[int]json.RawMessage, len(want))
	outLines, _, err := scanLines(outPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("sweep: read results: %w", err)
	}
	for n, line := range outLines {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("sweep: corrupt result stream %s: line %d: %w", outPath, n+1, err)
		}
		if rec.Result == nil {
			continue // streamed failure: retried on resume
		}
		if hash, ok := want[rec.Index]; ok && hash == resultHash(rec.Result) {
			raw[rec.Index] = rec.Result
		}
	}
	return &Resume{Raw: raw}, nil
}

// RewriteCheckpoint compacts a resumed sweep's checkpoint to a fresh
// header plus one entry per confirmed-done index, atomically (temp file +
// rename), and reopens it for appending. This clears torn lines and
// entries whose results were lost, so the on-disk state always matches
// what the resumed run believes.
func RewriteCheckpoint(path string, total int, grid string, st *Resume) (*os.File, *CheckpointWriter, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: rewrite checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	ck, err := NewCheckpointWriter(tmp, total, grid)
	if err == nil && st != nil {
		for i := 0; i < total && err == nil; i++ {
			if raw, ok := st.Raw[i]; ok {
				err = ck.Mark(i, resultHash(raw))
			}
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		tmp.Close()
		return nil, nil, fmt.Errorf("sweep: rewrite checkpoint: %w", err)
	}
	return tmp, ck, nil
}

// OpenResumeOutput opens a resumed sweep's result stream for appending,
// first trimming any torn trailing fragment a kill mid-write left behind,
// so the next record starts on a fresh line.
func OpenResumeOutput(path string) (*os.File, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("sweep: open -out: %w", err)
	}
	keep := int64(0)
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		keep = int64(i + 1)
	}
	if int64(len(data)) != keep {
		if err := os.Truncate(path, keep); err != nil {
			return nil, fmt.Errorf("sweep: trim torn result line: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open -out: %w", err)
	}
	return f, nil
}

// MergeJSONL rewrites a completed sweep's result stream in place from
// completion order to deterministic spec order, atomically (temp file +
// rename). For each index the last successful record wins (a resumed
// stream may hold duplicates; deterministic execution makes them
// byte-identical). Raw result bytes are copied verbatim. Indices with no
// successful record keep their last failure record, so the merged file
// always holds exactly total lines, one per grid index.
func MergeJSONL(path string, total int) error {
	lines, torn, err := scanLines(path)
	if err != nil {
		return fmt.Errorf("sweep: merge: %w", err)
	}
	if len(torn) > 0 {
		return fmt.Errorf("sweep: merge: %s ends mid-record", path)
	}
	best := make(map[int][]byte, total)
	failed := make(map[int][]byte)
	for n, line := range lines {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("sweep: merge: %s line %d: %w", path, n+1, err)
		}
		if rec.Index < 0 || rec.Index >= total {
			return fmt.Errorf("sweep: merge: %s line %d: index %d outside grid of %d", path, n+1, rec.Index, total)
		}
		if rec.Result != nil {
			best[rec.Index] = line
		} else {
			failed[rec.Index] = line
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: merge: %w", err)
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	for i := 0; i < total; i++ {
		line, ok := best[i]
		if !ok {
			if line, ok = failed[i]; !ok {
				return fmt.Errorf("sweep: merge: %s has no record for grid index %d", path, i)
			}
		}
		if _, err := tmp.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("sweep: merge: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("sweep: merge: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("sweep: merge: %w", err)
	}
	return nil
}
