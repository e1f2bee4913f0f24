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

// indentLen reports the length of appendIndent's output for src.
func indentLen(src []byte) int {
	n, depth := len(src), 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			i = stringEnd(src, i)
		case '{', '[':
			if emptyAt(src, i) {
				i++
				continue
			}
			depth++
			n += 1 + 2*depth
		case ',':
			n += 1 + 2*depth
		case ':':
			n++
		case '}', ']':
			depth--
			n += 1 + 2*depth
		}
	}
	return n
}

// appendIndent appends src, compact JSON text as json.Marshal writes
// it, to dst as json.Indent(dst, src, "", "  ") lays it out: a newline
// and two spaces per level of nesting after an opening bracket, a comma
// and before a closing bracket, a space after a colon, and empty
// objects and arrays kept as {} and []. Outside strings compact text
// holds only punctuation and literals, so no JSON scanner is needed.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			end := stringEnd(src, i)
			dst = append(dst, src[i:end+1]...)
			i = end
		case '{', '[':
			if emptyAt(src, i) {
				dst = append(dst, c, src[i+1])
				i++
				continue
			}
			depth++
			dst = appendLine(append(dst, c), depth)
		case ',':
			dst = appendLine(append(dst, c), depth)
		case ':':
			dst = append(dst, c, ' ')
		case '}', ']':
			depth--
			dst = append(appendLine(dst, depth), c)
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// stringEnd returns the index of the quote that closes the string
// opening at src[i], or the last index if it does not close.
func stringEnd(src []byte, i int) int {
	for i++; i < len(src); i++ {
		switch src[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return len(src) - 1
}

// emptyAt reports whether the bracket at src[i] opens an empty object
// or array.
func emptyAt(src []byte, i int) bool {
	return i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']')
}

// appendLine appends a newline and depth levels of two-space
// indentation.
func appendLine(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for k := 2 * depth; k > 0; k -= len(spaces) {
		dst = append(dst, spaces[:min(k, len(spaces))]...)
	}
	return dst
}

const spaces = "                                                                "

func leadingSpaces(b []byte) int {
	n := 0
	for n < len(b) && b[n] == ' ' {
		n++
	}
	return n
}
