package scenario

import "encoding/json"

// CanonicalJSON renders a spec in its canonical wire form: the compact,
// field-ordered MarshalJSON encoding. This single representation is the
// unit of exchange everywhere a spec crosses a process boundary or is hashed
// — the sweep worker protocol (coordinator → worker task payload) and the
// checkpoint grid hash that guards resume against a changed grid.
//
// The encoding round-trips exactly: Unmarshal followed by CanonicalJSON
// reproduces the same bytes, because every field is either integral or a
// float64 that encoding/json renders in its shortest form (which Go parses
// back to the identical bit pattern). That property is what lets a worker
// subprocess receive a spec, execute it, and produce results byte-identical
// to in-process execution — pinned by TestCanonicalJSONRoundTrip and the
// coordinator goldens.
func CanonicalJSON(s Spec) ([]byte, error) { return json.Marshal(s) }
