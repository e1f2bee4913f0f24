package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReindent checks the re-indent helper at both of its sites
// against encoding/json, for any valid JSON v:
//
//   - renderStored on the entry store writes for v is json.Indent of v
//     with two spaces, plus a newline (v as the entry holds it:
//     compact, HTML characters escaped);
//   - v indented with two spaces, re-laid-out six spaces deep as
//     internal/serve splices it into a /result body, is json.Indent of v
//     with a six-space prefix.
func FuzzReindent(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "check", "testdata", "golden", "beff_t3e.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("t3e/8", golden)
	for _, v := range []string{
		`{}`, `[]`, `null`, `1.5e300`, `"x <&>\"\\"`, `[[],{},[{}]]`,
		`{"a":[1,{"value":null}],"value":"\n \"value\": ","c":{"d":{"e":[true,false]}}}`,
	} {
		f.Add("k\"<é>", []byte(v))
	}
	f.Fuzz(func(t *testing.T, key string, v []byte) {
		if !json.Valid(v) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, v); err != nil {
			t.Fatal(err)
		}

		var stored bytes.Buffer
		json.HTMLEscape(&stored, compact.Bytes())
		var want bytes.Buffer
		if err := json.Indent(&want, stored.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		e, err := json.MarshalIndent(entry{Key: key, Fingerprint: json.RawMessage(`{"value":{"value":1}}`), Value: compact.Bytes()}, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		got, ok := renderStored(e)
		switch {
		case compact.String() == "null":
			if ok {
				t.Fatalf("a null value rendered: %q", got)
			}
		case !ok:
			t.Fatalf("renderStored refused its own entry:\n%s", e)
		case !bytes.Equal(got, want.Bytes()):
			t.Fatalf("renderStored:\n%s\nwant\n%s", got, want.Bytes())
		case cap(got) != len(got):
			t.Fatalf("renderStored: cap %d, len %d", cap(got), len(got))
		}

		var src, spliced bytes.Buffer
		if err := json.Indent(&src, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&spliced, compact.Bytes(), "      ", "  "); err != nil {
			t.Fatal(err)
		}
		from, to := Layout{Prefix: 0, Indent: 2}, Layout{Prefix: 6, Indent: 2}
		n, ok := ReindentLen(src.Bytes(), from, to)
		if !ok {
			t.Fatalf("ReindentLen refused json.Indent output:\n%s", src.Bytes())
		}
		out := AppendReindent(nil, src.Bytes(), from, to)
		if !bytes.Equal(out, spliced.Bytes()) || n != len(out) {
			t.Fatalf("splice (ReindentLen %d):\n%s\nwant\n%s", n, out, spliced.Bytes())
		}
	})
}
