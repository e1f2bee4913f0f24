package runner

import "bytes"

// Layout is how json.Indent lays out JSON text: every line after the
// first starts with Prefix spaces, then Indent spaces per level of
// nesting.
type Layout struct{ Prefix, Indent int }

// ReindentLen reports the length of AppendReindent's output for src,
// or false when a line of src does not start with from's indentation.
//
// Both functions rest on one precondition: every raw newline in src is
// structural whitespace, followed by the next line's indentation. That
// holds for json.Indent and json.MarshalIndent output, whose strings
// hold a newline only escaped, so the spaces that start a line are its
// depth's indentation and nothing else. Neither function scans src as
// JSON: a line that starts with from.Prefix+d*from.Indent spaces starts
// with to.Prefix+d*to.Indent spaces instead, and every other byte is
// copied.
func ReindentLen(src []byte, from, to Layout) (int, bool) {
	n := len(src)
	for {
		i := bytes.IndexByte(src, '\n')
		if i < 0 {
			return n, true
		}
		src = src[i+1:]
		sp := leadingSpaces(src)
		if sp < from.Prefix || (sp-from.Prefix)%from.Indent != 0 {
			return 0, false
		}
		n += to.Prefix + (sp-from.Prefix)/from.Indent*to.Indent - sp
		src = src[sp:]
	}
}

// AppendReindent appends src, JSON text laid out as from, to dst, laid
// out as to. src must be text that ReindentLen accepts; AppendReindent
// does not check it again.
func AppendReindent(dst, src []byte, from, to Layout) []byte {
	for {
		i := bytes.IndexByte(src, '\n')
		if i < 0 {
			return append(dst, src...)
		}
		dst = append(dst, src[:i+1]...)
		src = src[i+1:]
		sp := leadingSpaces(src)
		src = src[sp:]
		for k := to.Prefix + (sp-from.Prefix)/from.Indent*to.Indent; k > 0; k -= len(spaces) {
			dst = append(dst, spaces[:min(k, len(spaces))]...)
		}
	}
}

const spaces = "                                                                "

func leadingSpaces(b []byte) int {
	n := 0
	for n < len(b) && b[n] == ' ' {
		n++
	}
	return n
}
