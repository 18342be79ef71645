//! A concrete (ASCII) syntax for interval formulas.
//!
//! The notation mirrors the report's as closely as a plain-text syntax allows:
//!
//! ```text
//! [ A => *B ] <> D                      interval formula with the * modifier
//! [ atEnq(a) <= afterDq(b) ] [] ~UA     backward operator, parameterized events
//! [] (cs -> x)                          plain temporal formulas
//! forall a. [ => afterDq(a) ] *atEnq(a) quantification over data values
//! exp = ?v                              comparison of a state component with a data variable
//! ```
//!
//! Grammar summary (`IDENT` is an alphanumeric identifier, `INT` an integer):
//!
//! ```text
//! formula := iff
//! iff     := impl ("<->" impl)*
//! impl    := or ("->" impl)?
//! or      := and ("|" and)*
//! and     := unary ("&" unary)*
//! unary   := "~" unary | "[]" unary | "<>" unary
//!          | "forall" IDENT "." unary | "exists" IDENT "." unary
//!          | "[" term "]" unary | "occurs" "(" term ")" | atom
//! atom    := "true" | "false" | "(" formula ")" | pred
//! pred    := IDENT "(" args ")" | IDENT cmp operand | IDENT
//! operand := INT | "?" IDENT | IDENT        (a bare IDENT is a state component)
//! args    := arg ("," arg)*                 (INT is a value, IDENT a data variable)
//! cmp     := "=" | "/=" | "<" | "<=" | ">" | ">="
//! term    := prefix? ("=>" | "<=") prefix? | prefix
//! prefix  := "*" prefix | "begin" prefix | "end" prefix
//!          | "(" term ")" | "{" formula "}" | IDENT ("(" args ")")?
//! ```
//!
//! Inside interval terms, `<=` is the backward operator; comparisons inside
//! event formulas must be wrapped in `{ ... }`.
//!
//! Nesting is capped at [`MAX_NESTING`] levels, so a hostile input (a few
//! kilobytes of `(`) is a [`ParseError`] rather than a stack overflow here
//! or in any recursive pass over the formula downstream.  Size is capped at
//! [`MAX_FORMULA_NODES`] nodes: `a <-> b` expands to `(a -> b) & (b -> a)`,
//! copying both sides twice, so a chain of `<->` would otherwise grow
//! exponentially in its length.

use std::fmt;

use crate::syntax::{Arg, CmpOp, Expr, Formula, IntervalTerm, Pred};
use crate::value::Value;

/// A parse error with a position and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input at which the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The deepest nesting [`parse_formula`] and [`parse_term`] accept, capped
/// two ways.  The parser's own recursion: each prefix operator (`~`, `[]`,
/// `<>`, `forall`, `exists`, `[ term ]`, `*`, `begin`, `end`), parenthesis,
/// brace and `->` operand opens a level.  And the depth of the parsed tree,
/// where every connective is a level — so a chain of `&` nests one level
/// per operator.  Deeper input is refused with a [`ParseError`], which keeps
/// every recursive pass over a parsed formula within a bounded stack.
pub const MAX_NESTING: usize = 128;

/// The most nodes (as counted by [`Formula::size`]) a formula parsed by
/// [`parse_formula`] or [`parse_term`] may have.  The parser checks the
/// budget before it expands a biconditional — the one production whose
/// output can outgrow its input exponentially — so a `<->` chain is refused
/// before its expansion is allocated, and checks every parsed tree against
/// it once more at the end.
pub const MAX_FORMULA_NODES: usize = 1 << 16;

/// Parses an interval formula from its concrete syntax.
pub fn parse_formula(input: &str) -> Result<Formula, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0, depth: 0 };
    let formula = parser.formula()?;
    parser.expect_end()?;
    measure(Node::Formula(&formula))?;
    Ok(formula)
}

/// Parses an interval term from its concrete syntax.
pub fn parse_term(input: &str) -> Result<IntervalTerm, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0, depth: 0 };
    let term = parser.term()?;
    parser.expect_end()?;
    measure(Node::Term(&term))?;
    Ok(term)
}

fn nesting_error(position: usize) -> ParseError {
    ParseError { position, message: format!("nesting deeper than {MAX_NESTING} levels") }
}

/// A node of a parsed tree.
enum Node<'a> {
    Formula(&'a Formula),
    Term(&'a IntervalTerm),
}

fn size_error(position: usize) -> ParseError {
    ParseError { position, message: format!("formula larger than {MAX_FORMULA_NODES} nodes") }
}

/// The node count of a parsed tree; refuses a tree deeper than
/// [`MAX_NESTING`] or larger than [`MAX_FORMULA_NODES`], walking it with an
/// explicit stack (the tree this guards against would overflow a recursive
/// walk).
fn measure(root: Node<'_>) -> Result<usize, ParseError> {
    let mut stack = vec![(root, 1)];
    let mut nodes = 0;
    while let Some((node, depth)) = stack.pop() {
        if depth > MAX_NESTING {
            return Err(nesting_error(0));
        }
        nodes += 1;
        if nodes > MAX_FORMULA_NODES {
            return Err(size_error(0));
        }
        let mut push = |child| stack.push((child, depth + 1));
        match node {
            Node::Formula(Formula::True | Formula::False | Formula::Pred(_)) => {}
            Node::Formula(
                Formula::Not(a)
                | Formula::Always(a)
                | Formula::Eventually(a)
                | Formula::Forall(_, a)
                | Formula::Exists(_, a),
            ) => push(Node::Formula(a)),
            Node::Formula(Formula::And(a, b) | Formula::Or(a, b)) => {
                push(Node::Formula(a));
                push(Node::Formula(b));
            }
            Node::Formula(Formula::In(term, a)) => {
                push(Node::Term(term));
                push(Node::Formula(a));
            }
            Node::Term(IntervalTerm::Event(a)) => push(Node::Formula(a)),
            Node::Term(IntervalTerm::Begin(t) | IntervalTerm::End(t) | IntervalTerm::Must(t)) => {
                push(Node::Term(t));
            }
            Node::Term(IntervalTerm::Forward(a, b) | IntervalTerm::Backward(a, b)) => {
                for t in [a, b].into_iter().flatten() {
                    push(Node::Term(t));
                }
            }
        }
    }
    Ok(nodes)
}

/// A concrete-syntax corpus exercising every grammar production: propositions,
/// parameterized events, comparisons, quantifiers, both interval operators,
/// `begin`/`end`, the `*` modifier, and the report's specification idioms.
///
/// Shared by the arena round-trip tests, the parallel/sequential consistency
/// suite and the benches, so "every grammar production" means the same thing
/// everywhere.
pub const CORPUS: &[&str] = &[
    "true",
    "false",
    "~P",
    "P & Q | ~R",
    "P -> Q <-> ~P | Q",
    "[] (cs -> x)",
    "<> atDq",
    "[ A => B ] <> D",
    "[ A => *B ] <> D",
    "[ (A => B) => C ] <> D",
    "[ A <= C ] [] ~B",
    "[ begin (A => B) => C ] <> D",
    "[ end (A => B) ] P",
    "[ => C ] [] P",
    "[ A => ] <> P",
    "[ => ] P",
    "occurs(A => B)",
    "[ atEnq(a) <= afterDq(b) ] [] ~UA",
    "forall a. [ => afterDq(a) ] *atEnq(a)",
    "exists v. exp = ?v",
    "exp = 3",
    "x > z & y /= 0",
    "[ { exp = ?v } => A ] [] atEnq(v)",
    "forall a. forall b. [ atEnq(a) => atEnq(b) ] ~afterDq(b)",
    "[ *(R => A) => R ] ~A",
];

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Dot,
    Question,
    Tilde,
    Amp,
    Pipe,
    Arrow,   // ->
    DArrow,  // <->
    Box,     // []
    Diamond, // <>
    FwdOp,   // =>
    BwdOp,   // <=  (only meaningful inside terms; also the `<=` comparison)
    Star,
    Eq,
    Ne,
    Lt,
    Gt,
    Ge,
}

#[derive(Clone, Debug)]
struct Spanned {
    tok: Tok,
    at: usize,
}

fn tokenize(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let at = i;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '(' => {
                tokens.push(Spanned { tok: Tok::LParen, at });
                i += 1;
            }
            ')' => {
                tokens.push(Spanned { tok: Tok::RParen, at });
                i += 1;
            }
            '{' => {
                tokens.push(Spanned { tok: Tok::LBrace, at });
                i += 1;
            }
            '}' => {
                tokens.push(Spanned { tok: Tok::RBrace, at });
                i += 1;
            }
            ',' => {
                tokens.push(Spanned { tok: Tok::Comma, at });
                i += 1;
            }
            '.' => {
                tokens.push(Spanned { tok: Tok::Dot, at });
                i += 1;
            }
            '?' => {
                tokens.push(Spanned { tok: Tok::Question, at });
                i += 1;
            }
            '~' => {
                tokens.push(Spanned { tok: Tok::Tilde, at });
                i += 1;
            }
            '&' => {
                tokens.push(Spanned { tok: Tok::Amp, at });
                i += 1;
            }
            '|' => {
                tokens.push(Spanned { tok: Tok::Pipe, at });
                i += 1;
            }
            '*' => {
                tokens.push(Spanned { tok: Tok::Star, at });
                i += 1;
            }
            '[' => {
                if bytes.get(i + 1) == Some(&b']') {
                    tokens.push(Spanned { tok: Tok::Box, at });
                    i += 2;
                } else {
                    tokens.push(Spanned { tok: Tok::LBracket, at });
                    i += 1;
                }
            }
            ']' => {
                tokens.push(Spanned { tok: Tok::RBracket, at });
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Spanned { tok: Tok::Arrow, at });
                    i += 2;
                } else if bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    let (value, next) = lex_int(bytes, i)?;
                    tokens.push(Spanned { tok: Tok::Int(value), at });
                    i = next;
                } else {
                    return Err(ParseError { position: at, message: "unexpected '-'".into() });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'-') && bytes.get(i + 2) == Some(&b'>') {
                    tokens.push(Spanned { tok: Tok::DArrow, at });
                    i += 3;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Spanned { tok: Tok::Diamond, at });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Spanned { tok: Tok::BwdOp, at });
                    i += 2;
                } else {
                    tokens.push(Spanned { tok: Tok::Lt, at });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Spanned { tok: Tok::Ge, at });
                    i += 2;
                } else {
                    tokens.push(Spanned { tok: Tok::Gt, at });
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Spanned { tok: Tok::FwdOp, at });
                    i += 2;
                } else {
                    tokens.push(Spanned { tok: Tok::Eq, at });
                    i += 1;
                }
            }
            '/' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Spanned { tok: Tok::Ne, at });
                    i += 2;
                } else {
                    return Err(ParseError { position: at, message: "unexpected '/'".into() });
                }
            }
            c if c.is_ascii_digit() => {
                let (value, next) = lex_int(bytes, i)?;
                tokens.push(Spanned { tok: Tok::Int(value), at });
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Spanned { tok: Tok::Ident(input[start..i].to_string()), at });
            }
            other => {
                return Err(ParseError {
                    position: at,
                    message: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    Ok(tokens)
}

fn lex_int(bytes: &[u8], start: usize) -> Result<(i64, usize), ParseError> {
    let mut i = start;
    if bytes[i] == b'-' {
        i += 1;
    }
    let digits_start = i;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let text = std::str::from_utf8(&bytes[start..i]).expect("ascii digits");
    if digits_start == i {
        return Err(ParseError { position: start, message: "expected digits".into() });
    }
    text.parse::<i64>()
        .map(|v| (v, i))
        .map_err(|_| ParseError { position: start, message: "integer out of range".into() })
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Nesting levels open at the current position (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|s| &s.tok)
    }

    fn at(&self) -> usize {
        self.tokens.get(self.pos).map_or(usize::MAX, |s| s.at)
    }

    fn advance(&mut self) -> Option<Tok> {
        let tok = self.tokens.get(self.pos).map(|s| s.tok.clone());
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}")))
        }
    }

    fn expect_end(&mut self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input".to_string()))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError { position: self.at(), message }
    }

    /// Parses `inner` one recursion level deeper, or refuses the input past
    /// [`MAX_NESTING`] levels.  An error aborts the whole parse, so the
    /// error path need not close the level.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return Err(nesting_error(self.at()));
        }
        self.depth += 1;
        let parsed = inner(self)?;
        self.depth -= 1;
        Ok(parsed)
    }

    fn formula(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.impl_formula()?;
        loop {
            let at = self.at();
            if !self.eat(&Tok::DArrow) {
                return Ok(left);
            }
            let right = self.impl_formula()?;
            // `a <-> b` is `(~a | b) & (~b | a)`: both sides twice, plus
            // five connectives.  Refuse before allocating a too-large one.
            let expanded =
                2 * (measure(Node::Formula(&left))? + measure(Node::Formula(&right))?) + 5;
            if expanded > MAX_FORMULA_NODES {
                return Err(size_error(at));
            }
            left = left.iff(right);
        }
    }

    fn impl_formula(&mut self) -> Result<Formula, ParseError> {
        let left = self.or_formula()?;
        if self.eat(&Tok::Arrow) {
            let right = self.nested(Parser::impl_formula)?;
            Ok(left.implies(right))
        } else {
            Ok(left)
        }
    }

    fn or_formula(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.and_formula()?;
        let mut operators = 0;
        while self.eat(&Tok::Pipe) {
            self.chain_link(&mut operators)?;
            let right = self.and_formula()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn and_formula(&mut self) -> Result<Formula, ParseError> {
        let mut left = self.unary_formula()?;
        let mut operators = 0;
        while self.eat(&Tok::Amp) {
            self.chain_link(&mut operators)?;
            let right = self.unary_formula()?;
            left = left.and(right);
        }
        Ok(left)
    }

    /// Counts one more operator of a flat `&`/`|` chain.  A chain of `k`
    /// operators is a tree at least `k + 1` deep, so the chain is refused as
    /// soon as it is certain to exceed [`MAX_NESTING`] — before the rest of a
    /// long chain is parsed and allocated.
    fn chain_link(&self, operators: &mut usize) -> Result<(), ParseError> {
        *operators += 1;
        if *operators >= MAX_NESTING {
            return Err(nesting_error(self.at()));
        }
        Ok(())
    }

    fn unary_formula(&mut self) -> Result<Formula, ParseError> {
        self.nested(Parser::unary_formula_body)
    }

    fn unary_formula_body(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Some(Tok::Tilde) => {
                self.advance();
                Ok(self.unary_formula()?.not())
            }
            Some(Tok::Box) => {
                self.advance();
                Ok(self.unary_formula()?.always())
            }
            Some(Tok::Diamond) => {
                self.advance();
                Ok(self.unary_formula()?.eventually())
            }
            Some(Tok::LBracket) => {
                self.advance();
                let term = self.term()?;
                self.expect(Tok::RBracket, "']'")?;
                let body = self.unary_formula()?;
                Ok(body.within(term))
            }
            Some(Tok::Ident(name)) if name == "forall" || name == "exists" => {
                let is_forall = name == "forall";
                self.advance();
                let var = self.ident("quantified variable")?;
                self.expect(Tok::Dot, "'.'")?;
                let body = self.unary_formula()?;
                Ok(if is_forall { body.forall(var) } else { body.exists(var) })
            }
            Some(Tok::Ident(name)) if name == "occurs" => {
                self.advance();
                self.expect(Tok::LParen, "'('")?;
                let term = self.term()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(Formula::False.within(term).not())
            }
            Some(Tok::Star) => {
                // Formula-level `*I`: the interval must be constructible.
                self.advance();
                let term = self.prefix_term()?;
                Ok(Formula::False.within(term).not())
            }
            _ => self.atom_formula(),
        }
    }

    fn atom_formula(&mut self) -> Result<Formula, ParseError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                self.advance();
                let inner = self.formula()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(inner)
            }
            Some(Tok::Ident(name)) => {
                self.advance();
                match name.as_str() {
                    "true" => return Ok(Formula::True),
                    "false" => return Ok(Formula::False),
                    _ => {}
                }
                if self.eat(&Tok::LParen) {
                    let args = self.args()?;
                    self.expect(Tok::RParen, "')'")?;
                    return Ok(Formula::Pred(Pred::prop_args(name, args)));
                }
                if let Some(op) = self.try_cmp_op() {
                    let rhs = self.operand()?;
                    return Ok(Formula::Pred(Pred::cmp(Expr::state(name), op, rhs)));
                }
                Ok(Formula::prop(name))
            }
            _ => Err(self.error("expected a formula".to_string())),
        }
    }

    fn try_cmp_op(&mut self) -> Option<CmpOp> {
        let op = match self.peek()? {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::BwdOp => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return None,
        };
        self.advance();
        Some(op)
    }

    fn operand(&mut self) -> Result<Expr, ParseError> {
        match self.advance() {
            Some(Tok::Int(i)) => Ok(Expr::lit(i)),
            Some(Tok::Question) => Ok(Expr::data(self.ident("data variable")?)),
            Some(Tok::Ident(name)) => Ok(Expr::state(name)),
            _ => Err(self.error("expected a comparison operand".to_string())),
        }
    }

    fn args(&mut self) -> Result<Vec<Arg>, ParseError> {
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            return Ok(args);
        }
        loop {
            let arg = match self.advance() {
                Some(Tok::Int(i)) => Arg::Value(Value::Int(i)),
                Some(Tok::Question) => Arg::Var(self.ident("data variable")?),
                Some(Tok::Ident(name)) => Arg::Var(name),
                _ => return Err(self.error("expected an argument".to_string())),
            };
            args.push(arg);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(args)
    }

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.advance() {
            Some(Tok::Ident(name)) => Ok(name),
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    fn term(&mut self) -> Result<IntervalTerm, ParseError> {
        let left = match self.peek() {
            Some(Tok::FwdOp) | Some(Tok::BwdOp) => None,
            _ => Some(self.prefix_term()?),
        };
        match self.peek() {
            Some(Tok::FwdOp) | Some(Tok::BwdOp) => {
                let forward = self.peek() == Some(&Tok::FwdOp);
                self.advance();
                let right = match self.peek() {
                    None | Some(Tok::RBracket) | Some(Tok::RParen) => None,
                    _ => Some(Box::new(self.prefix_term()?)),
                };
                let left = left.map(Box::new);
                Ok(if forward {
                    IntervalTerm::Forward(left, right)
                } else {
                    IntervalTerm::Backward(left, right)
                })
            }
            _ => left.ok_or_else(|| self.error("expected an interval term".to_string())),
        }
    }

    fn prefix_term(&mut self) -> Result<IntervalTerm, ParseError> {
        self.nested(Parser::prefix_term_body)
    }

    fn prefix_term_body(&mut self) -> Result<IntervalTerm, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Star) => {
                self.advance();
                Ok(self.prefix_term()?.must())
            }
            Some(Tok::Ident(name)) if name == "begin" => {
                self.advance();
                Ok(self.prefix_term()?.begin())
            }
            Some(Tok::Ident(name)) if name == "end" => {
                self.advance();
                Ok(self.prefix_term()?.end())
            }
            Some(Tok::LParen) => {
                self.advance();
                let inner = self.term()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(inner)
            }
            Some(Tok::LBrace) => {
                self.advance();
                let inner = self.formula()?;
                self.expect(Tok::RBrace, "'}'")?;
                Ok(IntervalTerm::event(inner))
            }
            Some(Tok::Ident(name)) => {
                self.advance();
                if self.eat(&Tok::LParen) {
                    let args = self.args()?;
                    self.expect(Tok::RParen, "')'")?;
                    Ok(IntervalTerm::event(Formula::Pred(Pred::prop_args(name, args))))
                } else {
                    Ok(IntervalTerm::event(Formula::prop(name)))
                }
            }
            _ => Err(self.error("expected an interval term".to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn parses_basic_interval_formula() {
        let parsed = parse_formula("[ A => *B ] <> D").unwrap();
        let built = eventually(prop("D")).within(fwd(event(prop("A")), must(event(prop("B")))));
        assert_eq!(parsed, built);
    }

    #[test]
    fn parses_backward_and_prefix_terms() {
        let parsed = parse_formula("[ begin A <= C ] [] ~X").unwrap();
        let built = always(not(prop("X"))).within(bwd(begin(event(prop("A"))), event(prop("C"))));
        assert_eq!(parsed, built);
        let half = parse_formula("[ => afterDq(a) ] *atEnq").unwrap();
        assert!(half.to_string().contains("afterDq"));
    }

    #[test]
    fn parses_parameterized_predicates_and_quantifiers() {
        let parsed = parse_formula("forall a. [ atEnq(a) => ] <> afterDq(a)").unwrap();
        let built = forall(
            "a",
            eventually(prop_args("afterDq", [var("a")]))
                .within(fwd_from(event(prop_args("atEnq", [var("a")])))),
        );
        assert_eq!(parsed, built);
    }

    #[test]
    fn parses_comparisons_and_occurs() {
        let parsed = parse_formula("exp = ?v & x > 3 & occurs(A)").unwrap();
        assert!(parsed.free_vars().contains(&"v".to_string()));
        assert!(parsed.to_string().contains('>'));
        let occ = parse_formula("occurs(A => B)").unwrap();
        assert_eq!(occ, occurs(fwd(event(prop("A")), event(prop("B")))));
    }

    #[test]
    fn parses_boolean_structure_with_precedence() {
        let parsed = parse_formula("~P & Q | R -> S <-> T").unwrap();
        // (~P & Q | R -> S) <-> T : just check it parses to something stable.
        assert_eq!(parsed, parse_formula("(((~P & Q) | R) -> S) <-> T").unwrap());
    }

    #[test]
    fn parses_temporal_operators_and_braces() {
        let parsed = parse_formula("[] ([ { x = 16 } => ] <> P)").unwrap();
        assert!(parsed.to_string().contains("16"));
    }

    #[test]
    fn parse_term_entry_point() {
        let term = parse_term("(A => B) => C").unwrap();
        assert_eq!(term, fwd(fwd(event(prop("A")), event(prop("B"))), event(prop("C"))));
    }

    #[test]
    fn nesting_is_capped_at_max_nesting() {
        // Each shape at its deepest accepted count, then one deeper: the
        // parser's recursion binds parentheses and interval terms, the tree
        // depth binds `[]` prefixes and `&`/`->` chains (`a -> b` is
        // `~a | b`, one level deeper than its operand on the left).
        let parens = |n: usize| format!("{}P{}", "(".repeat(n), ")".repeat(n));
        let boxes = |n: usize| format!("{}P", "[]".repeat(n));
        let chain = |n: usize| format!("{}P", "P & ".repeat(n));
        let implications = |n: usize| format!("{}P", "P -> ".repeat(n));
        let terms = |n: usize| format!("[ {}A{} ] P", "(".repeat(n), ")".repeat(n));
        type Shape = fn(usize) -> String;
        let shapes: [(&str, Shape, usize); 5] = [
            ("parens", parens, MAX_NESTING - 1),
            ("boxes", boxes, MAX_NESTING - 1),
            ("chain", chain, MAX_NESTING - 1),
            ("implications", implications, MAX_NESTING - 2),
            ("terms", terms, MAX_NESTING - 2),
        ];
        for (shape, formula, deepest) in shapes {
            assert!(parse_formula(&formula(deepest)).is_ok(), "{shape} at the cap must parse");
            let error = parse_formula(&formula(deepest + 1)).expect_err(shape);
            assert!(error.message.contains("nesting"), "{shape}: {error}");
        }
        assert!(parse_formula(&parens(10_000)).is_err());
        // Chains nested as first operands stay shallow in the parser's
        // recursion but not in the tree: ten groups of twenty `&` build a
        // 201-deep tree.
        let grouped =
            (0..10).fold("P".to_string(), |inner, _| format!("({inner}{})", " & P".repeat(20)));
        assert!(parse_formula(&grouped).expect_err("grouped").message.contains("nesting"));
        let term = |n: usize| format!("{}A{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_term(&term(MAX_NESTING - 1)).is_ok());
        assert!(parse_term(&term(MAX_NESTING)).is_err());
    }

    #[test]
    fn biconditional_chains_are_capped_before_they_expand() {
        // `a <-> b` copies both sides twice, so k chained (or nested)
        // biconditionals would build about 2^k nodes: at k = 40 that is
        // terabytes, refused here before the expansion is allocated.
        let chain = |k: usize| format!("P{}", " <-> P".repeat(k));
        let nested = |k: usize| format!("{}P{}", "(P <-> ".repeat(k), ")".repeat(k));
        for (shape, formula) in [("chain", chain(40)), ("nested", nested(40))] {
            let error = parse_formula(&formula).expect_err(shape);
            assert!(error.message.contains("larger than"), "{shape}: {error}");
        }
        // Short chains expand as before, within the budget.
        let short = parse_formula(&chain(8)).expect("eight biconditionals fit");
        assert!(short.size() <= MAX_FORMULA_NODES);
        let longest = (1..40).take_while(|&k| parse_formula(&chain(k)).is_ok()).last().unwrap();
        assert!((10..=14).contains(&longest), "the budget admits {longest} chained <->");
        let error = parse_formula(&chain(longest + 1)).unwrap_err();
        assert_eq!(error.position, 2 + 6 * longest, "the refused operator is reported");
        // A flat `&` chain is refused at its first operator past the cap,
        // however long the rest of it is.
        let flat = format!("P{}", " & P".repeat(100_000));
        let error = parse_formula(&flat).expect_err("flat chain");
        assert!(error.message.contains("nesting"), "{error}");
        assert!(error.position < 4 * MAX_NESTING + 4, "refused early: {error}");
    }

    #[test]
    fn errors_are_reported_with_positions() {
        let err = parse_formula("[ A => ").unwrap_err();
        assert!(err.to_string().contains("parse error"));
        assert!(parse_formula("P @ Q").is_err());
        assert!(parse_formula("").is_err());
        assert!(parse_formula("P Q").is_err());
    }

    #[test]
    fn round_trips_through_evaluation() {
        use crate::semantics::holds;
        use crate::state::State;
        use crate::trace::Trace;
        let f = parse_formula("[ A => *B ] <> D").unwrap();
        let trace = Trace::finite(vec![
            State::new(),
            State::new().with("A"),
            State::new().with("A").with("D"),
            State::new().with("A").with("B"),
        ]);
        assert!(holds(&trace, &f));
    }
}
