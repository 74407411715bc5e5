package cache

import "encoding/binary"

// maxDepth is encoding/json's nesting limit: a value may nest 10,000 arrays
// and objects deep, not one more.
const maxDepth = 10000

// Byte classes of the validator's table.
const (
	clsOther  = iota
	clsSpace  // ' ', '\t', '\n', '\r'
	clsNumber // '-', '0'–'9'
	clsString // '"'
	clsObject // '{'
	clsArray  // '['
	clsTrue   // 't'
	clsFalse  // 'f'
	clsNull   // 'n'
)

var (
	class [256]byte
	// strPlain marks the bytes a string carries as they are: every byte
	// from 0x20 up but '"' and '\\'. Like json.Valid, no UTF-8 check.
	strPlain [256]bool
)

func init() {
	for _, c := range " \t\n\r" {
		class[c] = clsSpace
	}
	for _, c := range "-0123456789" {
		class[c] = clsNumber
	}
	class['"'], class['{'], class['['] = clsString, clsObject, clsArray
	class['t'], class['f'], class['n'] = clsTrue, clsFalse, clsNull
	for c := 0x20; c < 256; c++ {
		strPlain[c] = c != '"' && c != '\\'
	}
}

// Valid reports whether data is one JSON value, accepting exactly what
// json.Valid accepts (its fuzz test holds it to that): the four whitespace
// bytes around tokens, RFC 8259 numbers, strings with the escapes \" \\ \/
// \b \f \n \r \t and \uXXXX and any other byte from 0x20 up, true, false and
// null, and nesting up to maxDepth. It is one forward pass with no
// allocation below 64 levels: a byte-class table picks each token, and
// digits are consumed eight at a time.
func Valid(data []byte) bool {
	var stackBuf [64]byte
	stack := stackBuf[:0] // '{' or '[' per open container
	i := skipSpace(data, 0)
	for {
		// A value starts at i.
		if i >= len(data) {
			return false
		}
		switch class[data[i]] {
		case clsObject, clsArray:
			if len(stack) == maxDepth {
				return false
			}
			open := data[i]
			stack = append(stack, open)
			i = skipSpace(data, i+1)
			if i < len(data) && data[i] == open+2 { // '}' or ']'
				stack = stack[:len(stack)-1]
				i++
				break
			}
			if open == '{' {
				if i = member(data, i); i < 0 {
					return false
				}
			}
			continue
		case clsString:
			if i = skipString(data, i); i < 0 {
				return false
			}
		case clsNumber:
			if i = skipNumber(data, i); i < 0 {
				return false
			}
		case clsTrue:
			if i = literal(data, i, "true"); i < 0 {
				return false
			}
		case clsFalse:
			if i = literal(data, i, "false"); i < 0 {
				return false
			}
		case clsNull:
			if i = literal(data, i, "null"); i < 0 {
				return false
			}
		default:
			return false
		}
		// A value ended before i: close containers until the next value.
		for {
			i = skipSpace(data, i)
			if len(stack) == 0 {
				return i == len(data)
			}
			if i >= len(data) {
				return false
			}
			top := stack[len(stack)-1]
			if c := data[i]; c == top+2 {
				stack = stack[:len(stack)-1]
				i++
				continue
			} else if c != ',' {
				return false
			}
			i = skipSpace(data, i+1)
			if top == '{' {
				if i = member(data, i); i < 0 {
					return false
				}
			}
			break
		}
	}
}

// member consumes an object member's key and colon from i, returning the
// offset of its value (after whitespace), or -1.
func member(data []byte, i int) int {
	if i >= len(data) || data[i] != '"' {
		return -1
	}
	if i = skipString(data, i); i < 0 {
		return -1
	}
	if i = skipSpace(data, i); i >= len(data) || data[i] != ':' {
		return -1
	}
	return skipSpace(data, i+1)
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && class[data[i]] == clsSpace {
		i++
	}
	return i
}

// skipString consumes the string opening at data[i], returning the offset
// after its closing quote, or -1.
func skipString(data []byte, i int) int {
	for i++; i < len(data); {
		c := data[i]
		if strPlain[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			return i + 1
		case c != '\\' || i+1 >= len(data):
			return -1
		}
		switch data[i+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i += 2
		case 'u':
			if len(data)-i < 6 || !isHex(data[i+2]) || !isHex(data[i+3]) || !isHex(data[i+4]) || !isHex(data[i+5]) {
				return -1
			}
			i += 6
		default:
			return -1
		}
	}
	return -1
}

func isHex(c byte) bool {
	return c-'0' < 10 || (c|0x20)-'a' < 6
}

// skipNumber consumes the number starting at data[i] (a '-' or a digit),
// returning the offset after it, or -1: an optional minus, 0 or a digit run
// not starting with 0, an optional fraction and an optional exponent, each
// with at least one digit.
func skipNumber(data []byte, i int) int {
	if data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		return -1
	case data[i] == '0':
		i++
	case data[i]-'1' < 9:
		i = skipDigits(data, i+1)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i++; i >= len(data) || data[i]-'0' >= 10 {
			return -1
		}
		i = skipDigits(data, i+1)
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || data[i]-'0' >= 10 {
			return -1
		}
		i = skipDigits(data, i+1)
	}
	return i
}

// skipDigits consumes a run of decimal digits, eight at a time while eight
// remain.
func skipDigits(data []byte, i int) int {
	for len(data)-i >= 8 && eightDigits(binary.LittleEndian.Uint64(data[i:])) {
		i += 8
	}
	for i < len(data) && data[i]-'0' < 10 {
		i++
	}
	return i
}

// eightDigits reports whether all eight bytes of v are '0'–'9': each byte's
// high nibble must be 3, and stay 3 after adding 6 (which carries '9' at
// most to 0x3F). A carry out of one byte needs a high nibble of F there,
// which already fails.
func eightDigits(v uint64) bool {
	const hi = 0xF0F0F0F0F0F0F0F0
	return (v&hi)|((v+0x0606060606060606)&hi)>>4 == 0x3333333333333333
}

// literal consumes lit at data[i], returning the offset after it, or -1.
func literal(data []byte, i int, lit string) int {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}
