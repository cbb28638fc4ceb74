package asm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokReg    // %-prefixed name: register or privileged register
	tokNumber // integer literal
	tokFloat  // floating literal (only after .double)
	tokString // quoted string
	tokPunct  // one of , [ ] + - : ( )
)

type token struct {
	kind tokKind
	text string
	num  int64
	fnum float64
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of line"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// tokenize splits one source line (comments already stripped) into
// tokens appended to toks, whose texts are substrings of line.
func tokenize(line string, toks []token) ([]token, error) {
	i := 0
	n := len(line)
	for i < n {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case strings.IndexByte(",[]+:()-", c) >= 0:
			toks = append(toks, token{kind: tokPunct, text: line[i : i+1]})
			i++
		case c == '%':
			j := i + 1
			for j < n && (isIdentChar(line[j]) || unicode.IsDigit(rune(line[j]))) {
				j++
			}
			if j == i+1 {
				return toks, fmt.Errorf("stray %% at column %d", i+1)
			}
			toks = append(toks, token{kind: tokReg, text: line[i:j]})
			i = j
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < n && line[j] != '"' {
				if line[j] == '\\' && j+1 < n {
					j++
					switch line[j] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '0':
						sb.WriteByte(0)
					default:
						sb.WriteByte(line[j])
					}
				} else {
					sb.WriteByte(line[j])
				}
				j++
			}
			if j >= n {
				return toks, fmt.Errorf("unterminated string")
			}
			toks = append(toks, token{kind: tokString, text: sb.String()})
			i = j + 1
		case c == '\'':
			if i+2 < n && line[i+2] == '\'' {
				toks = append(toks, token{kind: tokNumber, num: int64(line[i+1]), text: line[i : i+3]})
				i += 3
			} else {
				return toks, fmt.Errorf("bad character literal at column %d", i+1)
			}
		case unicode.IsDigit(rune(c)):
			j := i
			isFloat := false
			for j < n && (isNumChar(line[j]) || line[j] == '.') {
				if line[j] == '.' {
					// Only a float if followed by a digit (avoid eating
					// a following directive or label dot).
					if j+1 < n && unicode.IsDigit(rune(line[j+1])) {
						isFloat = true
					} else {
						break
					}
				}
				j++
			}
			text := line[i:j]
			if isFloat {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return toks, fmt.Errorf("bad float %q", text)
				}
				toks = append(toks, token{kind: tokFloat, text: text, fnum: f})
			} else {
				v, err := parseInt(text)
				if err != nil {
					return toks, fmt.Errorf("bad number %q", text)
				}
				toks = append(toks, token{kind: tokNumber, text: text, num: v})
			}
			i = j
		case isIdentStart(c):
			j := i
			for j < n && isIdentChar(line[j]) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: line[i:j]})
			i = j
		default:
			return toks, fmt.Errorf("unexpected character %q at column %d", c, i+1)
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '.' || c == '_' || c == '$' || unicode.IsLetter(rune(c))
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || unicode.IsDigit(rune(c))
}

func isNumChar(c byte) bool {
	return unicode.IsDigit(rune(c)) || c == 'x' || c == 'X' ||
		(c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c == '_'
}

func parseInt(s string) (int64, error) {
	s = strings.ReplaceAll(s, "_", "")
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err := strconv.ParseUint(s[2:], 16, 64)
		return int64(v), err
	}
	return strconv.ParseInt(s, 10, 64)
}

// stripComment removes trailing comments ('!', '#', "//" or ";") outside of
// string and character literals.
func stripComment(line string) string {
	inStr := false
	inChar := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case inChar:
			if c == '\'' {
				inChar = false
			}
		case c == '"':
			inStr = true
		case c == '\'':
			inChar = true
		case c == '!' || c == '#' || c == ';':
			return line[:i]
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			return line[:i]
		}
	}
	return line
}
