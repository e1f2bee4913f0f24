package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReindent checks the indent and re-indent helpers against
// encoding/json: for any valid JSON v, v compacted and indented with
// two spaces (appendIndent, as the cache stores results) is json.Indent
// of v, and that, re-laid-out six spaces deep as internal/serve splices
// it into a /result body, is json.Indent of v with a six-space prefix.
func FuzzReindent(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "check", "testdata", "golden", "beff_t3e.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, v := range []string{
		`{}`, `[]`, `null`, `1.5e300`, `"x <&>\"\\"`, `[[],{},[{}]]`,
		`{"a":[1,{"value":null}],"value":"\n \"value\": ","c":{"d":{"e":[true,false]}}}`,
	} {
		f.Add([]byte(v))
	}
	f.Fuzz(func(t *testing.T, v []byte) {
		if !json.Valid(v) {
			return
		}
		var compact, src, spliced bytes.Buffer
		if err := json.Compact(&compact, v); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&src, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&spliced, compact.Bytes(), "      ", "  "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndent([]byte("x"), compact.Bytes()); !bytes.Equal(got[1:], src.Bytes()) || indentLen(compact.Bytes()) != len(got)-1 {
			t.Fatalf("indent (indentLen %d):\n%s\nwant\n%s", indentLen(compact.Bytes()), got[1:], src.Bytes())
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
