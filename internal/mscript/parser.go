package mscript

import (
	"fmt"
	"strconv"
)

// Parse parses an MScript program (a statement sequence) and resolves its
// names (resolve.go).
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Stmt
	for !p.at(TokEOF) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	prog := &Program{Stmts: stmts}
	resolveRoot(&prog.fnInfo, nil, stmts, p.fns > 0)
	return prog, nil
}

// ParseFunction parses and resolves a single function literal, the unit in
// which mobile method bodies travel. Trailing tokens are an error.
func ParseFunction(src string) (*FnLit, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(TokEOF) {
		// Allow one trailing semicolon for convenience.
		if p.at(TokSemi) {
			p.advance()
		}
		if !p.at(TokEOF) {
			return nil, p.errorf("unexpected %s after function literal", p.cur().Kind)
		}
	}
	fn, ok := e.(*FnLit)
	if !ok {
		return nil, p.errorf("source is not a function literal")
	}
	resolveRoot(&fn.fnInfo, fn.Params, fn.Body.Stmts, p.fns > 1)
	return fn, nil
}

// maxParseDepth bounds grammar recursion so hostile source (deeply nested
// parentheses, blocks, or literals) fails with a syntax error instead of
// exhausting the goroutine stack — the parser runs on code received from
// untrusted peers.
const maxParseDepth = 200

type parser struct {
	toks  []Token
	pos   int
	depth int
	fns   int // function literals parsed
}

// enter guards one level of grammar recursion; callers defer the returned
// function.
func (p *parser) enter() (func(), error) {
	p.depth++
	if p.depth > maxParseDepth {
		return nil, p.errorf("nesting deeper than %d", maxParseDepth)
	}
	return func() { p.depth-- }, nil
}

func (p *parser) cur() Token { return p.toks[p.pos] }

func (p *parser) at(k TokenKind) bool { return p.cur().Kind == k }

func (p *parser) advance() Token {
	t := p.cur()
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k TokenKind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errorf("expected %s, found %s", k, p.cur().Kind)
	}
	return p.advance(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrSyntax, p.cur().Pos, fmt.Sprintf(format, args...))
}

// ---- Statements ----

func (p *parser) parseStmt() (Stmt, error) {
	leave, err := p.enter()
	if err != nil {
		return nil, err
	}
	defer leave()
	switch p.cur().Kind {
	case TokLet:
		return p.parseLet()
	case TokReturn:
		return p.parseReturn()
	case TokIf:
		return p.parseIf()
	case TokWhile:
		return p.parseWhile()
	case TokFor:
		return p.parseFor()
	case TokBreak:
		pos := p.advance().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &Break{Pos: pos}, nil
	case TokContinue:
		pos := p.advance().Pos
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &Continue{Pos: pos}, nil
	case TokLBrace:
		return p.parseBlock()
	default:
		return p.parseExprOrAssign()
	}
}

func (p *parser) parseLet() (Stmt, error) {
	pos := p.advance().Pos // let
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &Let{Name: name.Text, Expr: e, Pos: pos}, nil
}

func (p *parser) parseReturn() (Stmt, error) {
	pos := p.advance().Pos // return
	if p.at(TokSemi) {
		p.advance()
		return &Return{Pos: pos}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &Return{Expr: e, Pos: pos}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.advance().Pos // if
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	stmt := &If{Cond: cond, Then: then, Pos: pos}
	if p.at(TokElse) {
		p.advance()
		if p.at(TokIf) {
			els, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			stmt.Else = els
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			stmt.Else = els
		}
	}
	return stmt, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	pos := p.advance().Pos // while
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &While{Cond: cond, Body: body, Pos: pos}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	pos := p.advance().Pos // for
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokIn); err != nil {
		return nil, err
	}
	iter, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ForIn{Var: name.Text, Iter: iter, Body: body, Pos: pos}, nil
}

func (p *parser) parseBlock() (*Block, error) {
	lb, err := p.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, p.errorf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.advance() // }
	return &Block{Stmts: stmts, Pos: lb.Pos}, nil
}

func (p *parser) parseExprOrAssign() (Stmt, error) {
	pos := p.cur().Pos
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.at(TokAssign) {
		switch e.(type) {
		case *Ident, *Index, *Field:
		default:
			return nil, p.errorf("invalid assignment target")
		}
		p.advance()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return &Assign{Target: e, Expr: rhs, Pos: pos}, nil
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return &ExprStmt{Expr: e, Pos: pos}, nil
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) {
	leave, err := p.enter()
	if err != nil {
		return nil, err
	}
	defer leave()
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(TokOr) {
		pos := p.advance().Pos
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: TokOr, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *parser) parseAnd() (Expr, error) {
	x, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.at(TokAnd) {
		pos := p.advance().Pos
		y, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: TokAnd, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *parser) parseCmp() (Expr, error) {
	x, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().Kind
		switch k {
		case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
			pos := p.advance().Pos
			y, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			x = &Binary{Op: k, X: x, Y: y, Pos: pos}
		default:
			return x, nil
		}
	}
}

func (p *parser) parseAdd() (Expr, error) {
	x, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.at(TokPlus) || p.at(TokMinus) {
		op := p.cur().Kind
		pos := p.advance().Pos
		y, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *parser) parseMul() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(TokStar) || p.at(TokSlash) || p.at(TokPercent) {
		op := p.cur().Kind
		pos := p.advance().Pos
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &Binary{Op: op, X: x, Y: y, Pos: pos}
	}
	return x, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus:
		pos := p.advance().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: TokMinus, X: x, Pos: pos}, nil
	case TokBang:
		pos := p.advance().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: TokBang, X: x, Pos: pos}, nil
	default:
		return p.parsePostfix()
	}
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch p.cur().Kind {
		case TokLParen:
			pos := p.cur().Pos
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			x = &Call{Fn: x, Args: args, Pos: pos}
		case TokLBracket:
			pos := p.advance().Pos
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			x = &Index{X: x, Idx: idx, Pos: pos}
		case TokDot:
			pos := p.advance().Pos
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if p.at(TokLParen) {
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				x = &MethodCall{X: x, Name: name.Text, Args: args, Pos: pos}
			} else {
				x = &Field{X: x, Name: name.Text, Pos: pos}
			}
		default:
			return x, nil
		}
	}
}

func (p *parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.at(TokRParen) {
		if len(args) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	p.advance() // )
	return args, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.advance()
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", t.Text)
		}
		return &IntLit{Value: i, Pos: t.Pos}, nil
	case TokFloat:
		p.advance()
		f, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf("bad float literal %q", t.Text)
		}
		return &FloatLit{Value: f, Pos: t.Pos}, nil
	case TokString:
		p.advance()
		return &StringLit{Value: t.Text, Pos: t.Pos}, nil
	case TokTrue, TokFalse:
		p.advance()
		return &BoolLit{Value: t.Kind == TokTrue, Pos: t.Pos}, nil
	case TokNull:
		p.advance()
		return &NullLit{Pos: t.Pos}, nil
	case TokIdent:
		p.advance()
		return &Ident{Name: t.Text, Pos: t.Pos}, nil
	case TokFn:
		return p.parseFnLit()
	case TokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokLBracket:
		p.advance()
		var elems []Expr
		for !p.at(TokRBracket) {
			if len(elems) > 0 {
				if _, err := p.expect(TokComma); err != nil {
					return nil, err
				}
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		p.advance() // ]
		return &ListLit{Elems: elems, Pos: t.Pos}, nil
	case TokLBrace:
		return p.parseMapLit()
	default:
		return nil, p.errorf("unexpected %s in expression", t.Kind)
	}
}

func (p *parser) parseFnLit() (Expr, error) {
	pos := p.advance().Pos // fn
	p.fns++
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var params []string
	seen := map[string]bool{}
	for !p.at(TokRParen) {
		if len(params) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if seen[name.Text] {
			return nil, p.errorf("duplicate parameter %q", name.Text)
		}
		seen[name.Text] = true
		params = append(params, name.Text)
	}
	p.advance() // )
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &FnLit{Params: params, Body: body, Pos: pos}, nil
}

func (p *parser) parseMapLit() (Expr, error) {
	pos := p.advance().Pos // {
	var pairs []MapPair
	seen := map[string]bool{}
	for !p.at(TokRBrace) {
		if len(pairs) > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		var key string
		switch p.cur().Kind {
		case TokString, TokIdent:
			key = p.advance().Text
		default:
			return nil, p.errorf("expected map key, found %s", p.cur().Kind)
		}
		if seen[key] {
			return nil, p.errorf("duplicate map key %q", key)
		}
		seen[key] = true
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, MapPair{Key: key, Value: v})
	}
	p.advance() // }
	return &MapLit{Pairs: pairs, Pos: pos}, nil
}
