package mscript

import (
	"strconv"
	"strings"
)

// Node is any AST node. Render writes canonical source for the node; parsing
// the rendered text yields an equivalent AST, which is how mobile script
// functions are serialized (source is the wire format for code).
type Node interface {
	render(sb *strings.Builder, indent int)
}

// Expr is an expression node; pos is where a budget failure inside it is
// reported.
type Expr interface {
	Node
	pos() Pos
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Program is a parsed compilation unit: a sequence of statements, resolved
// like the body of a parameterless outermost function.
type Program struct {
	Stmts []Stmt
	fnInfo
}

// Source renders the program's canonical source text.
func (p *Program) Source() string {
	var sb strings.Builder
	for _, s := range p.Stmts {
		s.render(&sb, 0)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (p *Program) render(sb *strings.Builder, indent int) {
	for _, s := range p.Stmts {
		s.render(sb, indent)
		sb.WriteByte('\n')
	}
}

func writeIndent(sb *strings.Builder, indent int) {
	for i := 0; i < indent; i++ {
		sb.WriteString("  ")
	}
}

// ---- Expressions ----

// IntLit is an integer literal.
type IntLit struct {
	Value int64
	Pos   Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Value float64
	Pos   Pos
}

// StringLit is a string literal (decoded payload).
type StringLit struct {
	Value string
	Pos   Pos
}

// BoolLit is true or false.
type BoolLit struct {
	Value bool
	Pos   Pos
}

// NullLit is the null literal.
type NullLit struct{ Pos Pos }

// Ident references a variable. refs is where its binding may live,
// innermost first (resolve.go); the first slot that is set wins.
type Ident struct {
	Name string
	Pos  Pos
	refs []slotRef
}

// ListLit is a list literal.
type ListLit struct {
	Elems []Expr
	Pos   Pos
}

// MapPair is one key: value entry of a map literal.
type MapPair struct {
	Key   string
	Value Expr
}

// MapLit is a map literal with source-ordered pairs.
type MapLit struct {
	Pairs []MapPair
	Pos   Pos
}

// FnLit is a function literal: fn(params) { body }.
type FnLit struct {
	Params []string
	Body   *Block
	Pos    Pos
	fnInfo
}

// Unary applies "-" or "!" to an operand.
type Unary struct {
	Op  TokenKind
	X   Expr
	Pos Pos
}

// Binary applies an infix operator.
type Binary struct {
	Op   TokenKind
	X, Y Expr
	Pos  Pos
}

// Call invokes a callable expression. builtin is set when Fn is a bare
// builtin name: it is what runs while no variable of that name is set.
type Call struct {
	Fn      Expr
	Args    []Expr
	Pos     Pos
	builtin BuiltinFunc
}

// Index reads x[i].
type Index struct {
	X, Idx Expr
	Pos    Pos
}

// Field reads x.name (map entry, or a host object data item).
type Field struct {
	X    Expr
	Name string
	Pos  Pos
}

// MethodCall invokes x.name(args) — for host objects this is MROM method
// invocation; for maps it is calling a stored function.
type MethodCall struct {
	X    Expr
	Name string
	Args []Expr
	Pos  Pos
}

func (e *IntLit) pos() Pos     { return e.Pos }
func (e *FloatLit) pos() Pos   { return e.Pos }
func (e *StringLit) pos() Pos  { return e.Pos }
func (e *BoolLit) pos() Pos    { return e.Pos }
func (e *NullLit) pos() Pos    { return e.Pos }
func (e *Ident) pos() Pos      { return e.Pos }
func (e *ListLit) pos() Pos    { return e.Pos }
func (e *MapLit) pos() Pos     { return e.Pos }
func (e *FnLit) pos() Pos      { return e.Pos }
func (e *Unary) pos() Pos      { return e.Pos }
func (e *Binary) pos() Pos     { return e.Pos }
func (e *Call) pos() Pos       { return e.Pos }
func (e *Index) pos() Pos      { return e.Pos }
func (e *Field) pos() Pos      { return e.Pos }
func (e *MethodCall) pos() Pos { return e.Pos }

func (e *IntLit) render(sb *strings.Builder, _ int) {
	sb.WriteString(strconv.FormatInt(e.Value, 10))
}

func (e *FloatLit) render(sb *strings.Builder, _ int) {
	s := strconv.FormatFloat(e.Value, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	sb.WriteString(s)
}

func (e *StringLit) render(sb *strings.Builder, _ int) {
	sb.WriteByte('"')
	for i := 0; i < len(e.Value); i++ {
		c := e.Value[i]
		switch c {
		case '\n':
			sb.WriteString(`\n`)
		case '\t':
			sb.WriteString(`\t`)
		case '\r':
			sb.WriteString(`\r`)
		case '"':
			sb.WriteString(`\"`)
		case '\\':
			sb.WriteString(`\\`)
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteByte('"')
}

func (e *BoolLit) render(sb *strings.Builder, _ int) {
	sb.WriteString(strconv.FormatBool(e.Value))
}

func (*NullLit) render(sb *strings.Builder, _ int) { sb.WriteString("null") }

func (e *Ident) render(sb *strings.Builder, _ int) { sb.WriteString(e.Name) }

func (e *ListLit) render(sb *strings.Builder, indent int) {
	sb.WriteByte('[')
	for i, el := range e.Elems {
		if i > 0 {
			sb.WriteString(", ")
		}
		el.render(sb, indent)
	}
	sb.WriteByte(']')
}

func (e *MapLit) render(sb *strings.Builder, indent int) {
	sb.WriteByte('{')
	for i, p := range e.Pairs {
		if i > 0 {
			sb.WriteString(", ")
		}
		(&StringLit{Value: p.Key}).render(sb, indent)
		sb.WriteString(": ")
		p.Value.render(sb, indent)
	}
	sb.WriteByte('}')
}

func (e *FnLit) render(sb *strings.Builder, indent int) {
	sb.WriteString("fn(")
	sb.WriteString(strings.Join(e.Params, ", "))
	sb.WriteString(") ")
	e.Body.render(sb, indent)
}

func (e *Unary) render(sb *strings.Builder, indent int) {
	sb.WriteString(e.Op.String())
	sb.WriteByte('(')
	e.X.render(sb, indent)
	sb.WriteByte(')')
}

func (e *Binary) render(sb *strings.Builder, indent int) {
	sb.WriteByte('(')
	e.X.render(sb, indent)
	sb.WriteByte(' ')
	sb.WriteString(e.Op.String())
	sb.WriteByte(' ')
	e.Y.render(sb, indent)
	sb.WriteByte(')')
}

func (e *Call) render(sb *strings.Builder, indent int) {
	e.Fn.render(sb, indent)
	renderArgs(sb, e.Args, indent)
}

func renderArgs(sb *strings.Builder, args []Expr, indent int) {
	sb.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			sb.WriteString(", ")
		}
		a.render(sb, indent)
	}
	sb.WriteByte(')')
}

func (e *Index) render(sb *strings.Builder, indent int) {
	e.X.render(sb, indent)
	sb.WriteByte('[')
	e.Idx.render(sb, indent)
	sb.WriteByte(']')
}

func (e *Field) render(sb *strings.Builder, indent int) {
	e.X.render(sb, indent)
	sb.WriteByte('.')
	sb.WriteString(e.Name)
}

func (e *MethodCall) render(sb *strings.Builder, indent int) {
	e.X.render(sb, indent)
	sb.WriteByte('.')
	sb.WriteString(e.Name)
	renderArgs(sb, e.Args, indent)
}

// ---- Statements ----

// Block is a braced statement list. Its variables are slots of the
// enclosing frame unless an inner function captures one (heap): then every
// entry allocates a frame of nslots.
type Block struct {
	Stmts  []Stmt
	Pos    Pos
	heap   bool
	nslots int
}

// Let declares and initializes a new variable in the current scope: slot
// of the current frame.
type Let struct {
	Name string
	Expr Expr
	Pos  Pos
	slot int
}

// Assign writes to an existing variable, index, or field target.
type Assign struct {
	Target Expr // *Ident, *Index or *Field
	Expr   Expr
	Pos    Pos
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	Expr Expr
	Pos  Pos
}

// Return exits the enclosing function, optionally with a value.
type Return struct {
	Expr Expr // may be nil
	Pos  Pos
}

// If branches on a condition; Else is a *Block, an *If, or nil.
type If struct {
	Cond Expr
	Then *Block
	Else Stmt
	Pos  Pos
}

// While loops on a condition.
type While struct {
	Cond Expr
	Body *Block
	Pos  Pos
}

// ForIn iterates a list, map (keys, sorted), string, or int range.
type ForIn struct {
	Var  string
	Iter Expr
	Body *Block
	Pos  Pos
	slot int // of Var, which shares the body's scope
}

// Break exits the innermost loop.
type Break struct{ Pos Pos }

// Continue advances the innermost loop.
type Continue struct{ Pos Pos }

func (*Block) stmtNode()    {}
func (*Let) stmtNode()      {}
func (*Assign) stmtNode()   {}
func (*ExprStmt) stmtNode() {}
func (*Return) stmtNode()   {}
func (*If) stmtNode()       {}
func (*While) stmtNode()    {}
func (*ForIn) stmtNode()    {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}

func (b *Block) render(sb *strings.Builder, indent int) {
	sb.WriteString("{\n")
	for _, s := range b.Stmts {
		writeIndent(sb, indent+1)
		s.render(sb, indent+1)
		sb.WriteByte('\n')
	}
	writeIndent(sb, indent)
	sb.WriteByte('}')
}

func (s *Let) render(sb *strings.Builder, indent int) {
	sb.WriteString("let ")
	sb.WriteString(s.Name)
	sb.WriteString(" = ")
	s.Expr.render(sb, indent)
	sb.WriteByte(';')
}

func (s *Assign) render(sb *strings.Builder, indent int) {
	s.Target.render(sb, indent)
	sb.WriteString(" = ")
	s.Expr.render(sb, indent)
	sb.WriteByte(';')
}

func (s *ExprStmt) render(sb *strings.Builder, indent int) {
	s.Expr.render(sb, indent)
	sb.WriteByte(';')
}

func (s *Return) render(sb *strings.Builder, indent int) {
	sb.WriteString("return")
	if s.Expr != nil {
		sb.WriteByte(' ')
		s.Expr.render(sb, indent)
	}
	sb.WriteByte(';')
}

func (s *If) render(sb *strings.Builder, indent int) {
	sb.WriteString("if ")
	s.Cond.render(sb, indent)
	sb.WriteByte(' ')
	s.Then.render(sb, indent)
	if s.Else != nil {
		sb.WriteString(" else ")
		s.Else.render(sb, indent)
	}
}

func (s *While) render(sb *strings.Builder, indent int) {
	sb.WriteString("while ")
	s.Cond.render(sb, indent)
	sb.WriteByte(' ')
	s.Body.render(sb, indent)
}

func (s *ForIn) render(sb *strings.Builder, indent int) {
	sb.WriteString("for ")
	sb.WriteString(s.Var)
	sb.WriteString(" in ")
	s.Iter.render(sb, indent)
	sb.WriteByte(' ')
	s.Body.render(sb, indent)
}

func (*Break) render(sb *strings.Builder, _ int)    { sb.WriteString("break;") }
func (*Continue) render(sb *strings.Builder, _ int) { sb.WriteString("continue;") }
