package query

import (
	"strconv"

	"repro/internal/agg"
	"repro/internal/tuple"
)

// Parse parses a Pivot Tracing query in the surface syntax, e.g.:
//
//	From incr In DataNodeMetrics.incrBytesRead
//	Join cl In First(ClientProtocols) On cl -> incr
//	GroupBy cl.procName
//	Select cl.procName, SUM(incr.delta)
//
// Keywords (From, In, Join, On, Where, GroupBy, Select) are case-sensitive.
// Clauses after From may appear in any order; Where may repeat (the
// predicates are conjoined).
func Parse(input string) (*Query, error) {
	toks, err := lexAll(input)
	if err != nil {
		return nil, err
	}
	p := &parser{input: input, toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	input string
	toks  []token
	pos   int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectIdentKeyword(text string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != text {
		return errorAt(p.input, t.pos, "expected %q, found %s", text, t)
	}
	return nil
}

func (p *parser) expectKind(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, errorAt(p.input, t.pos, "expected %s, found %s", what, t)
	}
	return t, nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectIdentKeyword("From"); err != nil {
		return nil, err
	}
	alias, err := p.expectKind(tokIdent, "alias")
	if err != nil {
		return nil, err
	}
	q.From.Alias = alias.text
	if err := p.expectIdentKeyword("In"); err != nil {
		return nil, err
	}
	for {
		src, err := p.parseSource()
		if err != nil {
			return nil, err
		}
		q.From.Sources = append(q.From.Sources, src)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}

	seenGroupBy, seenSelect, seenSample := false, false, false
	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent {
			return nil, errorAt(p.input, t.pos, "expected clause keyword, found %s", t)
		}
		switch t.text {
		case "Join":
			p.next()
			j, err := p.parseJoin()
			if err != nil {
				return nil, err
			}
			q.Joins = append(q.Joins, j)
		case "Where":
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, e)
		case "GroupBy":
			if seenGroupBy {
				return nil, errorAt(p.input, t.pos, "duplicate GroupBy clause")
			}
			seenGroupBy = true
			p.next()
			for {
				f, err := p.parseFieldRef()
				if err != nil {
					return nil, err
				}
				q.GroupBy = append(q.GroupBy, f)
				if p.peek().kind != tokComma {
					break
				}
				p.next()
			}
		case "Select":
			if seenSelect {
				return nil, errorAt(p.input, t.pos, "duplicate Select clause")
			}
			seenSelect = true
			p.next()
			for {
				si, err := p.parseSelectItem()
				if err != nil {
					return nil, err
				}
				q.Select = append(q.Select, si)
				if p.peek().kind != tokComma {
					break
				}
				p.next()
			}
		case "Sample":
			if seenSample {
				return nil, errorAt(p.input, t.pos, "duplicate Sample clause")
			}
			seenSample = true
			p.next()
			nTok, err := p.expectKind(tokNumber, "sampling rate")
			if err != nil {
				return nil, err
			}
			rate, err := strconv.ParseFloat(nTok.text, 64)
			if err != nil {
				return nil, errorAt(p.input, nTok.pos, "bad sampling rate %q", nTok.text)
			}
			if !(rate > 0 && rate <= 1) {
				return nil, errorAt(p.input, nTok.pos, "sampling rate %v out of range (0, 1]", rate)
			}
			q.Sample = rate
		default:
			return nil, errorAt(p.input, t.pos, "unexpected %s; expected Join, Where, GroupBy, Select, or Sample", t)
		}
	}
	if len(q.Select) == 0 {
		return nil, errorAt(p.input, p.peek().pos, "query has no Select clause")
	}
	return q, nil
}

var tempFilters = map[string]TempFilter{
	"First":       FilterFirst,
	"FirstN":      FilterFirstN,
	"MostRecent":  FilterMostRecent,
	"MostRecentN": FilterMostRecentN,
}

// parseSource parses a tracepoint/query reference, optionally wrapped in a
// temporal filter: Name, Pkg.Name, First(Name), MostRecentN(3, Name).
func (p *parser) parseSource() (Source, error) {
	t, err := p.expectKind(tokIdent, "source name")
	if err != nil {
		return Source{}, err
	}
	if f, ok := tempFilters[t.text]; ok && p.peek().kind == tokLParen {
		p.next() // (
		src := Source{Filter: f, N: 1}
		if f == FilterFirstN || f == FilterMostRecentN {
			nTok, err := p.expectKind(tokNumber, "tuple count")
			if err != nil {
				return Source{}, err
			}
			n, err := strconv.Atoi(nTok.text)
			if err != nil || n < 1 {
				return Source{}, errorAt(p.input, nTok.pos, "bad tuple count %q", nTok.text)
			}
			src.N = n
			if _, err := p.expectKind(tokComma, "','"); err != nil {
				return Source{}, err
			}
		}
		name, err := p.parseDottedName()
		if err != nil {
			return Source{}, err
		}
		src.Tracepoint = name
		if _, err := p.expectKind(tokRParen, "')'"); err != nil {
			return Source{}, err
		}
		return src, nil
	}
	name := t.text
	for p.peek().kind == tokDot {
		p.next()
		part, err := p.expectKind(tokIdent, "name component")
		if err != nil {
			return Source{}, err
		}
		name += "." + part.text
	}
	return Source{Tracepoint: name}, nil
}

func (p *parser) parseDottedName() (string, error) {
	t, err := p.expectKind(tokIdent, "name")
	if err != nil {
		return "", err
	}
	name := t.text
	for p.peek().kind == tokDot {
		p.next()
		part, err := p.expectKind(tokIdent, "name component")
		if err != nil {
			return "", err
		}
		name += "." + part.text
	}
	return name, nil
}

func (p *parser) parseJoin() (Join, error) {
	var j Join
	alias, err := p.expectKind(tokIdent, "join alias")
	if err != nil {
		return j, err
	}
	j.Alias = alias.text
	if err := p.expectIdentKeyword("In"); err != nil {
		return j, err
	}
	j.Source, err = p.parseSource()
	if err != nil {
		return j, err
	}
	if err := p.expectIdentKeyword("On"); err != nil {
		return j, err
	}
	left, err := p.expectKind(tokIdent, "alias")
	if err != nil {
		return j, err
	}
	j.Left = left.text
	if _, err := p.expectKind(tokArrow, "'->'"); err != nil {
		return j, err
	}
	right, err := p.expectKind(tokIdent, "alias")
	if err != nil {
		return j, err
	}
	j.Right = right.text
	return j, nil
}

// parseFieldRef parses alias or alias.field.
func (p *parser) parseFieldRef() (FieldRef, error) {
	t, err := p.expectKind(tokIdent, "field reference")
	if err != nil {
		return FieldRef{}, err
	}
	f := FieldRef{Alias: t.text}
	if p.peek().kind == tokDot {
		p.next()
		field, err := p.expectKind(tokIdent, "field name")
		if err != nil {
			return FieldRef{}, err
		}
		f.Field = field.text
	}
	return f, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if t := p.peek(); t.kind == tokIdent {
		if fn, ok := agg.FromName(t.text); ok {
			p.next()
			si := SelectItem{Agg: fn, HasAgg: true}
			if p.peek().kind == tokLParen {
				p.next()
				e, err := p.parseExpr()
				if err != nil {
					return si, err
				}
				si.Expr = e
				if _, err := p.expectKind(tokRParen, "')'"); err != nil {
					return si, err
				}
			} else if fn != agg.Count {
				return si, errorAt(p.input, t.pos, "%s requires an argument", fn)
			}
			return si, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: e}, nil
}

// Expression grammar, lowest to highest precedence:
//
//	or:   and ( "||" and )*
//	and:  cmp ( "&&" cmp )*
//	cmp:  add ( ("="|"!="|"<"|"<="|">"|">=") add )?
//	add:  mul ( ("+"|"-") mul )*
//	mul:  unary ( ("*"|"/") unary )*
//	unary: ("!"|"-") unary | primary
//	primary: literal | fieldref | "(" expr ")"
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && p.peek().text == "||" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokOp && p.peek().text == "&&" {
		p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "+" && t.text != "-") {
			return l, nil
		}
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.text == "-" {
			op = OpSub
		}
		l = Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind != tokOp || (t.text != "*" && t.text != "/") {
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		op := OpMul
		if t.text == "/" {
			op = OpDiv
		}
		l = Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if t := p.peek(); t.kind == tokOp && (t.text == "!" || t.text == "-") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: t.text[0], X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		if i, err := strconv.ParseInt(t.text, 10, 64); err == nil {
			return Literal{Value: tuple.Int(i)}, nil
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errorAt(p.input, t.pos, "bad number %q", t.text)
		}
		return Literal{Value: tuple.Float(f)}, nil
	case tokString:
		return Literal{Value: tuple.String(t.text)}, nil
	case tokLParen:
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectKind(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokIdent:
		switch t.text {
		case "true":
			return Literal{Value: tuple.Bool(true)}, nil
		case "false":
			return Literal{Value: tuple.Bool(false)}, nil
		}
		f := FieldRef{Alias: t.text}
		if p.peek().kind == tokDot {
			p.next()
			field, err := p.expectKind(tokIdent, "field name")
			if err != nil {
				return nil, err
			}
			f.Field = field.text
		}
		return f, nil
	default:
		return nil, errorAt(p.input, t.pos, "expected expression, found %s", t)
	}
}
