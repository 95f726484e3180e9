// Package parser implements a recursive-descent parser for MiniC,
// including the paper's annotations:
//
//	dynamicRegion (v1, v2) { ... }
//	dynamicRegion key(k) (v1) { ... }
//	unrolled for (...) ...
//	x = dynamic* p;   p dynamic-> f;   a dynamic[i]
package parser

import (
	"fmt"

	"dyncc/internal/ast"
	"dyncc/internal/lexer"
	"dyncc/internal/token"
)

// Parser holds parse state. Tokens stream from the lexer through a
// three-token window (the parser never looks further ahead than two tokens
// past the current one): win[head&3] is the current token and the next two
// follow it around the ring. The lexer's EOF is sticky, so past the end of
// the source every window slot holds EOF.
type Parser struct {
	lx   lexer.Lexer
	win  [4]token.Token
	head uint8
	errs []error

	structNames map[string]bool
}

// Parse parses a MiniC translation unit. A lex error anywhere in the
// source is reported ahead of any parse error.
func Parse(src string) (*ast.File, error) {
	p := &Parser{lx: *lexer.New(src), structNames: map[string]bool{}}
	for i := 0; i < 3; i++ {
		p.win[i] = p.lx.Next()
	}
	f := p.file()
	// The parser stops at its first error; lex the rest so a later lex
	// error still wins.
	for t := p.peek2(); t.Kind != token.EOF; t = p.lx.Next() {
	}
	if errs := p.lx.Errors(); len(errs) > 0 {
		return nil, fmt.Errorf("lex: %w", errs[0])
	}
	if len(p.errs) > 0 {
		return nil, p.errs[0]
	}
	return f, nil
}

func (p *Parser) cur() token.Token   { return p.win[p.head&3] }
func (p *Parser) peek() token.Token  { return p.win[(p.head+1)&3] }
func (p *Parser) peek2() token.Token { return p.win[(p.head+2)&3] }

// next consumes the current token; at EOF it stays put.
func (p *Parser) next() token.Token {
	t := p.cur()
	if t.Kind != token.EOF {
		p.win[(p.head+3)&3] = p.lx.Next()
		p.head++
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return p.cur()
}

func (p *Parser) errorf(format string, args ...any) {
	err := fmt.Errorf("%s: %s", p.cur().Pos, fmt.Sprintf(format, args...))
	p.errs = append(p.errs, err)
	// Panic-free error recovery: skip one token so we make progress.
	p.next()
}

// ------------------------------------------------------------ top level

func (p *Parser) file() *ast.File {
	f := &ast.File{}
	for !p.at(token.EOF) && len(p.errs) == 0 {
		switch {
		// `struct Name {` is a struct definition, not a struct-typed
		// declaration.
		case p.at(token.KwStruct) && p.peek().Kind == token.IDENT && p.peek2().Kind == token.LBRACE:
			f.Structs = append(f.Structs, p.structDecl())
		case p.at(token.KwExtern):
			p.next()
			p.topDecl(f, true)
		default:
			p.topDecl(f, false)
		}
	}
	return f
}

func (p *Parser) structDecl() *ast.StructDecl {
	pos := p.expect(token.KwStruct).Pos
	name := p.expect(token.IDENT).Text
	p.structNames[name] = true
	p.expect(token.LBRACE)
	d := &ast.StructDecl{P: pos, Name: name}
	for !p.at(token.RBRACE) && !p.at(token.EOF) && len(p.errs) == 0 {
		base := p.typeBase()
		for {
			fld := p.declarator(base)
			d.Fields = append(d.Fields, &ast.Param{P: fld.P, Name: fld.Name, Type: fld.Type})
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.SEMI)
	}
	p.expect(token.RBRACE)
	p.expect(token.SEMI)
	return d
}

// topDecl parses a global variable or function definition.
func (p *Parser) topDecl(f *ast.File, isExtern bool) {
	base := p.typeBase()
	d := p.declarator(base)
	if p.at(token.LPAREN) {
		fn := &ast.FuncDecl{P: d.P, Name: d.Name, Ret: d.Type}
		p.expect(token.LPAREN)
		if !p.at(token.RPAREN) {
			if p.at(token.KwVoid) && p.peek().Kind == token.RPAREN {
				p.next()
			} else {
				for {
					pb := p.typeBase()
					pd := p.declarator(pb)
					fn.Params = append(fn.Params, &ast.Param{P: pd.P, Name: pd.Name, Type: pd.Type})
					if !p.accept(token.COMMA) {
						break
					}
				}
			}
		}
		p.expect(token.RPAREN)
		if p.accept(token.SEMI) {
			fn.Body = nil // prototype / extern
		} else {
			fn.Body = p.block()
		}
		f.Funcs = append(f.Funcs, fn)
		return
	}
	// Global variable(s).
	for {
		var init ast.Expr
		if p.accept(token.ASSIGN) {
			init = p.assignExpr()
		}
		if !isExtern {
			f.Globals = append(f.Globals, &ast.VarDecl{P: d.P, Name: d.Name, Type: d.Type, Init: init})
		}
		if !p.accept(token.COMMA) {
			break
		}
		d = p.declarator(base)
	}
	p.expect(token.SEMI)
}

// ------------------------------------------------------------ types

type baseType struct {
	pos        token.Pos
	kind       token.Kind
	structName string
}

func (p *Parser) atTypeStart() bool {
	switch p.cur().Kind {
	case token.KwInt, token.KwUnsigned, token.KwFloat, token.KwDouble,
		token.KwChar, token.KwVoid, token.KwStruct, token.KwConst, token.KwStatic:
		return true
	}
	return false
}

func (p *Parser) typeBase() baseType {
	for p.at(token.KwConst) || p.at(token.KwStatic) {
		p.next()
	}
	t := p.cur()
	switch t.Kind {
	case token.KwInt, token.KwFloat, token.KwDouble, token.KwChar, token.KwVoid:
		p.next()
		return baseType{pos: t.Pos, kind: t.Kind}
	case token.KwUnsigned:
		p.next()
		p.accept(token.KwInt) // "unsigned int"
		p.accept(token.KwChar)
		return baseType{pos: t.Pos, kind: token.KwUnsigned}
	case token.KwStruct:
		p.next()
		name := p.expect(token.IDENT).Text
		return baseType{pos: t.Pos, kind: token.KwStruct, structName: name}
	}
	p.errorf("expected type, found %s", t)
	return baseType{pos: t.Pos, kind: token.KwInt}
}

type declared struct {
	P    token.Pos
	Name string
	Type *ast.TypeExpr
}

// declarator parses `*...* name [len]...` after a base type.
func (p *Parser) declarator(b baseType) declared {
	te := &ast.TypeExpr{P: b.pos, Base: b.kind, StructName: b.structName}
	for p.accept(token.STAR) {
		te.Ptr++
	}
	nameTok := p.expect(token.IDENT)
	for p.accept(token.LBRACK) {
		if p.at(token.RBRACK) {
			te.ArrayLens = append(te.ArrayLens, -1)
		} else {
			n := p.expect(token.INT)
			te.ArrayLens = append(te.ArrayLens, int(n.IntVal))
		}
		p.expect(token.RBRACK)
	}
	return declared{P: nameTok.Pos, Name: nameTok.Text, Type: te}
}

// typeName parses a type inside a cast or sizeof: base *...*.
func (p *Parser) typeName() *ast.TypeExpr {
	b := p.typeBase()
	te := &ast.TypeExpr{P: b.pos, Base: b.kind, StructName: b.structName}
	for p.accept(token.STAR) {
		te.Ptr++
	}
	return te
}

// ------------------------------------------------------------ statements

func (p *Parser) block() *ast.Block {
	pos := p.expect(token.LBRACE).Pos
	b := &ast.Block{P: pos}
	for !p.at(token.RBRACE) && !p.at(token.EOF) && len(p.errs) == 0 {
		b.Stmts = append(b.Stmts, p.stmt())
	}
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) stmt() ast.Stmt {
	t := p.cur()
	switch t.Kind {
	case token.LBRACE:
		return p.block()
	case token.SEMI:
		p.next()
		return &ast.EmptyStmt{P: t.Pos}
	case token.KwIf:
		return p.ifStmt()
	case token.KwWhile:
		return p.whileStmt()
	case token.KwDo:
		return p.doWhileStmt()
	case token.KwFor:
		return p.forStmt(false)
	case token.KwUnrolled:
		p.next()
		if !p.at(token.KwFor) {
			p.errorf("expected 'for' after 'unrolled'")
		}
		return p.forStmt(true)
	case token.KwSwitch:
		return p.switchStmt()
	case token.KwCase:
		p.next()
		v := p.condExpr()
		p.expect(token.COLON)
		return &ast.Case{P: t.Pos, Value: v}
	case token.KwDefault:
		p.next()
		p.expect(token.COLON)
		return &ast.Case{P: t.Pos, IsDefault: true}
	case token.KwBreak:
		p.next()
		p.expect(token.SEMI)
		return &ast.Break{P: t.Pos}
	case token.KwContinue:
		p.next()
		p.expect(token.SEMI)
		return &ast.Continue{P: t.Pos}
	case token.KwGoto:
		p.next()
		lbl := p.expect(token.IDENT).Text
		p.expect(token.SEMI)
		return &ast.Goto{P: t.Pos, Label: lbl}
	case token.KwReturn:
		p.next()
		var x ast.Expr
		if !p.at(token.SEMI) {
			x = p.expr()
		}
		p.expect(token.SEMI)
		return &ast.Return{P: t.Pos, X: x}
	case token.KwDynamicRegion:
		return p.dynamicRegion()
	case token.IDENT:
		// Label?
		if p.peek().Kind == token.COLON {
			p.next()
			p.next()
			return &ast.LabeledStmt{P: t.Pos, Label: t.Text, Stmt: p.stmt()}
		}
	}
	if p.atTypeStart() {
		return p.declStmt()
	}
	x := p.expr()
	p.expect(token.SEMI)
	return &ast.ExprStmt{P: t.Pos, X: x}
}

func (p *Parser) declStmt() ast.Stmt {
	pos := p.cur().Pos
	base := p.typeBase()
	ds := &ast.DeclStmt{P: pos}
	for {
		d := p.declarator(base)
		var init ast.Expr
		if p.accept(token.ASSIGN) {
			init = p.assignExpr()
		}
		ds.Decls = append(ds.Decls, &ast.VarDecl{P: d.P, Name: d.Name, Type: d.Type, Init: init})
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.SEMI)
	return ds
}

func (p *Parser) ifStmt() ast.Stmt {
	pos := p.expect(token.KwIf).Pos
	p.expect(token.LPAREN)
	cond := p.expr()
	p.expect(token.RPAREN)
	thenS := p.stmt()
	var elseS ast.Stmt
	if p.accept(token.KwElse) {
		elseS = p.stmt()
	}
	return &ast.If{P: pos, Cond: cond, Then: thenS, Else: elseS}
}

func (p *Parser) whileStmt() ast.Stmt {
	pos := p.expect(token.KwWhile).Pos
	p.expect(token.LPAREN)
	cond := p.expr()
	p.expect(token.RPAREN)
	return &ast.While{P: pos, Cond: cond, Body: p.stmt()}
}

func (p *Parser) doWhileStmt() ast.Stmt {
	pos := p.expect(token.KwDo).Pos
	body := p.stmt()
	p.expect(token.KwWhile)
	p.expect(token.LPAREN)
	cond := p.expr()
	p.expect(token.RPAREN)
	p.expect(token.SEMI)
	return &ast.DoWhile{P: pos, Body: body, Cond: cond}
}

func (p *Parser) forStmt(unrolled bool) ast.Stmt {
	pos := p.expect(token.KwFor).Pos
	p.expect(token.LPAREN)
	var initS ast.Stmt
	if !p.at(token.SEMI) {
		if p.atTypeStart() {
			initS = p.declStmt() // consumes ';'
		} else {
			x := p.expr()
			initS = &ast.ExprStmt{P: x.Pos(), X: x}
			p.expect(token.SEMI)
		}
	} else {
		p.expect(token.SEMI)
	}
	var cond ast.Expr
	if !p.at(token.SEMI) {
		cond = p.expr()
	}
	p.expect(token.SEMI)
	var post ast.Expr
	if !p.at(token.RPAREN) {
		post = p.expr()
	}
	p.expect(token.RPAREN)
	return &ast.For{P: pos, Init: initS, Cond: cond, Post: post, Body: p.stmt(), Unrolled: unrolled}
}

func (p *Parser) switchStmt() ast.Stmt {
	pos := p.expect(token.KwSwitch).Pos
	p.expect(token.LPAREN)
	tag := p.expr()
	p.expect(token.RPAREN)
	return &ast.Switch{P: pos, Tag: tag, Body: p.block()}
}

func (p *Parser) dynamicRegion() ast.Stmt {
	pos := p.expect(token.KwDynamicRegion).Pos
	dr := &ast.DynamicRegion{P: pos}
	if p.accept(token.KwKey) {
		p.expect(token.LPAREN)
		for !p.at(token.RPAREN) {
			dr.Keys = append(dr.Keys, p.expect(token.IDENT).Text)
			if !p.accept(token.COMMA) {
				break
			}
		}
		p.expect(token.RPAREN)
	}
	p.expect(token.LPAREN)
	for !p.at(token.RPAREN) {
		dr.Consts = append(dr.Consts, p.expect(token.IDENT).Text)
		if !p.accept(token.COMMA) {
			break
		}
	}
	p.expect(token.RPAREN)
	dr.Body = p.block()
	return dr
}

// ------------------------------------------------------------ expressions

func (p *Parser) expr() ast.Expr {
	x := p.assignExpr()
	for p.at(token.COMMA) {
		// Comma operator: evaluate left, result is right.
		pos := p.next().Pos
		y := p.assignExpr()
		x = &ast.Binary{P: pos, Op: token.COMMA, L: x, R: y}
	}
	return x
}

func (p *Parser) assignExpr() ast.Expr {
	x := p.condExpr()
	if p.cur().Kind.IsAssign() {
		op := p.next()
		y := p.assignExpr()
		return &ast.Assign{P: op.Pos, Op: op.Kind, L: x, R: y}
	}
	return x
}

func (p *Parser) condExpr() ast.Expr {
	c := p.binExpr(0)
	if p.accept(token.QUESTION) {
		t := p.assignExpr()
		p.expect(token.COLON)
		f := p.condExpr()
		return &ast.Cond{P: c.Pos(), C: c, T: t, F: f}
	}
	return c
}

// Binary operator precedence (C-like). Higher binds tighter.
func prec(k token.Kind) int {
	switch k {
	case token.OROR:
		return 1
	case token.ANDAND:
		return 2
	case token.PIPE:
		return 3
	case token.CARET:
		return 4
	case token.AMP:
		return 5
	case token.EQ, token.NE:
		return 6
	case token.LT, token.GT, token.LE, token.GE:
		return 7
	case token.SHL, token.SHR:
		return 8
	case token.PLUS, token.MINUS:
		return 9
	case token.STAR, token.SLASH, token.PERCENT:
		return 10
	}
	return 0
}

func (p *Parser) binExpr(minPrec int) ast.Expr {
	x := p.unaryExpr()
	for {
		pr := prec(p.cur().Kind)
		if pr == 0 || pr < minPrec {
			return x
		}
		op := p.next()
		y := p.binExpr(pr + 1)
		x = &ast.Binary{P: op.Pos, Op: op.Kind, L: x, R: y}
	}
}

func (p *Parser) unaryExpr() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.MINUS, token.TILDE, token.BANG, token.AMP:
		p.next()
		return &ast.Unary{P: t.Pos, Op: t.Kind, X: p.unaryExpr()}
	case token.PLUS:
		p.next()
		return p.unaryExpr()
	case token.STAR:
		p.next()
		return &ast.Unary{P: t.Pos, Op: token.STAR, X: p.unaryExpr()}
	case token.KwDynamic:
		// dynamic* p  (prefix form)
		p.next()
		if p.accept(token.STAR) {
			return &ast.Unary{P: t.Pos, Op: token.STAR, X: p.unaryExpr(), Dynamic: true}
		}
		p.errorf("expected '*' after prefix 'dynamic'")
		return &ast.IntLit{P: t.Pos}
	case token.INC, token.DEC:
		p.next()
		x := p.unaryExpr()
		// ++x lowered as x += 1 at parse level.
		op := token.ADDA
		if t.Kind == token.DEC {
			op = token.SUBA
		}
		return &ast.Assign{P: t.Pos, Op: op, L: x, R: &ast.IntLit{P: t.Pos, Val: 1}}
	case token.KwSizeof:
		p.next()
		p.expect(token.LPAREN)
		te := p.typeName()
		p.expect(token.RPAREN)
		return &ast.SizeofType{P: t.Pos, Type: te}
	case token.LPAREN:
		// Cast or parenthesized expression.
		if p.isCastStart() {
			p.next()
			te := p.typeName()
			p.expect(token.RPAREN)
			return &ast.Cast{P: t.Pos, Type: te, X: p.unaryExpr()}
		}
	}
	return p.postfixExpr()
}

// isCastStart reports whether the current '(' begins a cast.
func (p *Parser) isCastStart() bool {
	if !p.at(token.LPAREN) {
		return false
	}
	switch p.peek().Kind {
	case token.KwInt, token.KwUnsigned, token.KwFloat, token.KwDouble,
		token.KwChar, token.KwVoid, token.KwStruct:
		return true
	}
	return false
}

func (p *Parser) postfixExpr() ast.Expr {
	x := p.primaryExpr()
	for {
		t := p.cur()
		switch t.Kind {
		case token.LBRACK:
			p.next()
			i := p.expr()
			p.expect(token.RBRACK)
			x = &ast.Index{P: t.Pos, X: x, I: i}
		case token.DOT:
			p.next()
			name := p.expect(token.IDENT).Text
			x = &ast.Field{P: t.Pos, X: x, Name: name}
		case token.ARROW:
			p.next()
			name := p.expect(token.IDENT).Text
			x = &ast.Field{P: t.Pos, X: x, Name: name, Arrow: true}
		case token.KwDynamic:
			// p dynamic-> f   or   a dynamic[ i ]
			switch p.peek().Kind {
			case token.ARROW:
				p.next()
				p.next()
				name := p.expect(token.IDENT).Text
				x = &ast.Field{P: t.Pos, X: x, Name: name, Arrow: true, Dynamic: true}
			case token.LBRACK:
				p.next()
				p.next()
				i := p.expr()
				p.expect(token.RBRACK)
				x = &ast.Index{P: t.Pos, X: x, I: i, Dynamic: true}
			default:
				p.errorf("expected '->' or '[' after postfix 'dynamic'")
				return x
			}
		case token.INC, token.DEC:
			p.next()
			x = &ast.PostIncDec{P: t.Pos, Op: t.Kind, X: x}
		default:
			return x
		}
	}
}

func (p *Parser) primaryExpr() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.IDENT:
		p.next()
		if p.at(token.LPAREN) {
			p.next()
			c := &ast.Call{P: t.Pos, Fun: t.Text}
			for !p.at(token.RPAREN) && !p.at(token.EOF) {
				c.Args = append(c.Args, p.assignExpr())
				if !p.accept(token.COMMA) {
					break
				}
			}
			p.expect(token.RPAREN)
			return c
		}
		return &ast.Ident{P: t.Pos, Name: t.Text}
	case token.INT, token.CHAR:
		p.next()
		return &ast.IntLit{P: t.Pos, Val: t.IntVal}
	case token.FLOAT:
		p.next()
		return &ast.FloatLit{P: t.Pos, Val: t.FloatVal}
	case token.STRING:
		p.next()
		return &ast.StringLit{P: t.Pos, Val: t.StrVal}
	case token.LPAREN:
		p.next()
		x := p.expr()
		p.expect(token.RPAREN)
		return x
	}
	p.errorf("expected expression, found %s", t)
	return &ast.IntLit{P: t.Pos}
}
