package constraint

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/sym"
)

// Parse reads a constraint set from the textual constraint language:
//
//	# comment
//	symbols a b c d e          (optional pre-declaration, fixes index order)
//	face a b c                 face-embedding constraint (a,b,c)
//	face a b [ c d ] e         don't-cares c,d bracketed
//	dom a > b                  dominance a > b
//	disj a = b | c             disjunctive a = b ∨ c
//	extdisj (b & c) | (d & e) >= a
//	dist2 a b                  distance-2 constraint
//	nonface a b e              non-face constraint a,b,e(
//	chain a b c d              chain constraint (a-b-c-d)
//
// Tokens are whitespace-separated; "[", "]", "(", ")", "|", "&", "=", ">",
// ">=" may be glued to names or stand alone.
func Parse(r io.Reader) (*Set, error) {
	s := NewSet(sym.NewTable())
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	lineNo := 0
	var toks []string
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		toks = tokenize(toks[:0], line)
		if len(toks) == 0 {
			continue
		}
		if err := s.parseLine(toks); err != nil {
			return nil, fmt.Errorf("constraint: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseString is Parse over a string.
func ParseString(text string) (*Set, error) {
	return Parse(strings.NewReader(text))
}

// MustParse parses text and panics on error; intended for tests and examples.
func MustParse(text string) *Set {
	s, err := ParseString(text)
	if err != nil {
		panic(err)
	}
	return s
}

// maxLine is the longest line Parse reads: the scanner's buffer starts
// small and grows to it only for a line that needs it.
const maxLine = 1 << 22

// tokenize appends the tokens of line to toks, detaching the punctuation
// characters the grammar uses from symbol names. Each token is a substring
// of line.
func tokenize(toks []string, line string) []string {
	name := 0 // start of the name being scanned
	for i := 0; i < len(line); i++ {
		c := line[i]
		sep := c == ' ' || c == '\t' || c == ','
		if !sep && strings.IndexByte("[]()|&=>", c) < 0 {
			continue
		}
		if name < i {
			toks = append(toks, line[name:i])
		}
		switch {
		case sep:
		case c == '>' && i+1 < len(line) && line[i+1] == '=':
			toks = append(toks, line[i:i+2])
			i++
		default:
			toks = append(toks, line[i:i+1])
		}
		name = i + 1
	}
	if name < len(line) {
		toks = append(toks, line[name:])
	}
	return toks
}

func (s *Set) parseLine(toks []string) error {
	keyword, rest := toks[0], toks[1:]
	// The paper's own notations are accepted directly:
	//   (a,b,c)        face constraint — tokenized as "(" a b c ")"
	//   a > b          dominance without the keyword
	//   a = b | c      disjunctive without the keyword
	if keyword == "(" {
		if len(rest) < 1 || rest[len(rest)-1] != ")" {
			return fmt.Errorf("unterminated face constraint %v", toks)
		}
		return s.parseFace(rest[:len(rest)-1])
	}
	if len(toks) == 3 && toks[1] == ">" {
		s.AddDominance(toks[0], toks[2])
		return nil
	}
	if len(toks) >= 3 && toks[1] == "=" {
		return s.parseDisj(toks)
	}
	switch keyword {
	case "symbols":
		for _, n := range rest {
			s.Syms.Intern(n)
		}
		return nil
	case "face":
		return s.parseFace(rest)
	case "dom":
		if len(rest) != 3 || rest[1] != ">" {
			return fmt.Errorf("dom wants 'dom a > b', got %v", rest)
		}
		s.AddDominance(rest[0], rest[2])
		return nil
	case "disj":
		return s.parseDisj(rest)
	case "extdisj":
		return s.parseExtDisj(rest)
	case "dist2":
		if len(rest) != 2 {
			return fmt.Errorf("dist2 wants two symbols, got %v", rest)
		}
		s.AddDistance2(rest[0], rest[1])
		return nil
	case "nonface":
		if len(rest) < 2 {
			return fmt.Errorf("nonface wants at least two symbols")
		}
		s.AddNonFace(rest...)
		return nil
	case "chain":
		if len(rest) < 2 {
			return fmt.Errorf("chain wants at least two symbols")
		}
		s.AddChain(rest...)
		return nil
	default:
		return fmt.Errorf("unknown keyword %q", keyword)
	}
}

func (s *Set) parseFace(toks []string) error {
	var members, dc []string
	inDC := false
	for _, t := range toks {
		switch t {
		case "[":
			if inDC {
				return fmt.Errorf("nested '[' in face")
			}
			inDC = true
		case "]":
			if !inDC {
				return fmt.Errorf("unmatched ']' in face")
			}
			inDC = false
		default:
			if inDC {
				dc = append(dc, t)
			} else {
				members = append(members, t)
			}
		}
	}
	if inDC {
		return fmt.Errorf("unterminated '[' in face")
	}
	if len(members) < 2 {
		return fmt.Errorf("face wants at least two required members")
	}
	s.AddFaceDC(members, dc)
	return nil
}

func (s *Set) parseDisj(toks []string) error {
	// parent = c1 | c2 | ...
	if len(toks) < 3 || toks[1] != "=" {
		return fmt.Errorf("disj wants 'disj p = a | b | ...'")
	}
	parent := toks[0]
	var children []string
	expectSym := true
	for _, t := range toks[2:] {
		if t == "|" {
			if expectSym {
				return fmt.Errorf("misplaced '|' in disj")
			}
			expectSym = true
			continue
		}
		if !expectSym {
			return fmt.Errorf("missing '|' before %q in disj", t)
		}
		children = append(children, t)
		expectSym = false
	}
	if expectSym || len(children) == 0 {
		return fmt.Errorf("disj ends with dangling '|' or has no children")
	}
	s.AddDisjunctive(parent, children...)
	return nil
}

func (s *Set) parseExtDisj(toks []string) error {
	// ( a & b ) | ( c & d ) >= p
	var conjs [][]string
	var cur []string
	i := 0
	for i < len(toks) && toks[i] != ">=" {
		switch toks[i] {
		case "(":
			cur = nil
		case ")":
			if len(cur) == 0 {
				return fmt.Errorf("empty conjunction in extdisj")
			}
			conjs = append(conjs, cur)
			cur = nil
		case "&", "|":
			// separators
		default:
			cur = append(cur, toks[i])
		}
		i++
	}
	if i >= len(toks)-1 {
		return fmt.Errorf("extdisj wants '>= parent' at the end")
	}
	if len(cur) > 0 {
		conjs = append(conjs, cur)
	}
	if len(conjs) == 0 {
		return fmt.Errorf("extdisj has no conjunctions")
	}
	parent := toks[i+1]
	named := make([][]string, len(conjs))
	copy(named, conjs)
	s.AddExtDisjunctive(parent, named...)
	return nil
}
