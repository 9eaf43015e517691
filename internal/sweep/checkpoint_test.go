package sweep

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadResume feeds LoadResume arbitrary checkpoint and result-stream
// bytes with an arbitrary grid size and key. It must never panic; a state it
// accepts holds only in-grid indices whose result hashes to the checkpoint's
// last entry for that index; and compacting the checkpoint with
// RewriteCheckpoint must not change what a second load recovers.
func FuzzLoadResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, ckpt, out []byte, total uint16, grid string) {
		dir := t.TempDir()
		ckPath, outPath := filepath.Join(dir, "sweep.ckpt"), filepath.Join(dir, "out.jsonl")
		if err := os.WriteFile(ckPath, ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(outPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := LoadResume(outPath, ckPath, int(total), grid)
		if err != nil {
			return
		}
		last := lastCheckpointHashes(ckpt)
		for i, raw := range st.Raw {
			if i < 0 || i >= int(total) {
				t.Fatalf("recovered index %d outside grid of %d", i, total)
			}
			if h, ok := last[i]; !ok || h != resultHash(raw) {
				t.Fatalf("index %d recovered with hash %s, checkpoint's last entry %q", i, resultHash(raw), h)
			}
		}

		file, _, err := RewriteCheckpoint(ckPath, int(total), grid, st)
		if err != nil {
			t.Fatalf("rewrite: %v", err)
		}
		file.Close()
		again, err := LoadResume(outPath, ckPath, int(total), grid)
		if err != nil {
			t.Fatalf("load after rewrite: %v", err)
		}
		if !maps.EqualFunc(st.Raw, again.Raw, func(a, b json.RawMessage) bool { return bytes.Equal(a, b) }) {
			t.Fatalf("rewrite changed the recovered state: %d indices, then %d", len(st.Raw), len(again.Raw))
		}
	})
}

// lastCheckpointHashes returns, per index, the hash of the last complete
// entry line of a checkpoint that LoadResume accepted.
func lastCheckpointHashes(ckpt []byte) map[int]string {
	lines := bytes.Split(ckpt, []byte("\n"))
	last := map[int]string{}
	if len(lines) < 2 {
		return last
	}
	for _, line := range lines[1 : len(lines)-1] { // header first; the final element is torn or empty
		var e checkpointEntry
		if json.Unmarshal(line, &e) == nil {
			last[e.Index] = e.Hash
		}
	}
	return last
}
