//! **EQL** — a small expression/query language over [`Value`] models,
//! standing in for the Epsilon Object Language scripts the paper embeds in
//! SSAM `ExternalReference`s (Fig. 8: "a script created using the Epsilon
//! Object Language (EOL) is used to extract the information in the system
//! model regarding component D1").
//!
//! The language supports attribute navigation, arithmetic/comparison/logic,
//! list literals, indexing, and first-order collection operations with
//! lambda arguments:
//!
//! ```text
//! rows.select(r | r.Component = 'Diode').collect(r | r.FIT).sum()
//! ```
//!
//! # Examples
//!
//! ```
//! use decisive_federation::{csv, eql::Query};
//!
//! # fn main() -> Result<(), decisive_federation::FederationError> {
//! let rows = csv::parse("Component,FIT\nDiode,10\nInductor,15\nMC,300\n")?;
//! let q = Query::parse("rows.select(r | r.FIT >= 15).collect(r | r.Component)")?;
//! let hit = q.eval(&rows)?;
//! assert_eq!(hit.len(), Some(2));
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{FederationError, Result};
use crate::value::Value;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Real(f64),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Dot,
    Comma,
    Pipe,
    Plus,
    Minus,
    Star,
    Slash,
    Eq, // = or ==
    Ne, // <> or !=
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    If,
    Then,
    Else,
    Endif,
    True,
    False,
    Null,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(i) => write!(f, "integer {i}"),
            Tok::Real(r) => write!(f, "number {r}"),
            Tok::Str(s) => write!(f, "string '{s}'"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Pipe => f.write_str("`|`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::Minus => f.write_str("`-`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Eq => f.write_str("`=`"),
            Tok::Ne => f.write_str("`<>`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Le => f.write_str("`<=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Ge => f.write_str("`>=`"),
            Tok::And => f.write_str("`and`"),
            Tok::Or => f.write_str("`or`"),
            Tok::Not => f.write_str("`not`"),
            Tok::If => f.write_str("`if`"),
            Tok::Then => f.write_str("`then`"),
            Tok::Else => f.write_str("`else`"),
            Tok::Endif => f.write_str("`endif`"),
            Tok::True => f.write_str("`true`"),
            Tok::False => f.write_str("`false`"),
            Tok::Null => f.write_str("`null`"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let err = |at: usize, msg: String| {
        let (mut line, mut col) = (1, 1);
        for &b in &bytes[..at] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        FederationError::Parse { format: "eql", line, column: col, message: msg }
    };
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            b')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            b'[' => {
                toks.push((Tok::LBracket, i));
                i += 1;
            }
            b']' => {
                toks.push((Tok::RBracket, i));
                i += 1;
            }
            b'.' => {
                toks.push((Tok::Dot, i));
                i += 1;
            }
            b',' => {
                toks.push((Tok::Comma, i));
                i += 1;
            }
            b'|' => {
                toks.push((Tok::Pipe, i));
                i += 1;
            }
            b'+' => {
                toks.push((Tok::Plus, i));
                i += 1;
            }
            b'-' => {
                toks.push((Tok::Minus, i));
                i += 1;
            }
            b'*' => {
                toks.push((Tok::Star, i));
                i += 1;
            }
            b'/' => {
                toks.push((Tok::Slash, i));
                i += 1;
            }
            b'=' => {
                i += if bytes.get(i + 1) == Some(&b'=') { 2 } else { 1 };
                toks.push((Tok::Eq, i));
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Ne, i));
                    i += 2;
                } else {
                    return Err(err(i, "expected `!=`".to_owned()));
                }
            }
            b'<' => match bytes.get(i + 1) {
                Some(b'=') => {
                    toks.push((Tok::Le, i));
                    i += 2;
                }
                Some(b'>') => {
                    toks.push((Tok::Ne, i));
                    i += 2;
                }
                _ => {
                    toks.push((Tok::Lt, i));
                    i += 1;
                }
            },
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((Tok::Ge, i));
                    i += 2;
                } else {
                    toks.push((Tok::Gt, i));
                    i += 1;
                }
            }
            b'\'' | b'"' => {
                let quote = c;
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => return Err(err(start, "unterminated string literal".to_owned())),
                        Some(&b) if b == quote => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            match bytes.get(i + 1) {
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                Some(&q) if q == quote => s.push(q as char),
                                Some(b'\\') => s.push('\\'),
                                _ => return Err(err(i, "invalid escape".to_owned())),
                            }
                            i += 2;
                        }
                        Some(&b) if b < 0x80 => {
                            s.push(b as char);
                            i += 1;
                        }
                        Some(_) => {
                            // Multi-byte UTF-8: copy the full character.
                            let rest = &src[i..];
                            let ch = rest.chars().next().expect("non-empty");
                            s.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                toks.push((Tok::Str(s), start));
            }
            b'0'..=b'9' => {
                let start = i;
                while matches!(bytes.get(i), Some(c) if c.is_ascii_digit()) {
                    i += 1;
                }
                let mut is_real = false;
                if bytes.get(i) == Some(&b'.')
                    && matches!(bytes.get(i + 1), Some(c) if c.is_ascii_digit())
                {
                    is_real = true;
                    i += 1;
                    while matches!(bytes.get(i), Some(c) if c.is_ascii_digit()) {
                        i += 1;
                    }
                }
                if matches!(bytes.get(i), Some(b'e' | b'E')) {
                    is_real = true;
                    i += 1;
                    if matches!(bytes.get(i), Some(b'+' | b'-')) {
                        i += 1;
                    }
                    while matches!(bytes.get(i), Some(c) if c.is_ascii_digit()) {
                        i += 1;
                    }
                }
                let text = &src[start..i];
                let tok = if is_real {
                    Tok::Real(
                        text.parse()
                            .map_err(|e: std::num::ParseFloatError| err(start, e.to_string()))?,
                    )
                } else {
                    Tok::Int(
                        text.parse()
                            .map_err(|e: std::num::ParseIntError| err(start, e.to_string()))?,
                    )
                };
                toks.push((tok, start));
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while matches!(bytes.get(i), Some(&c) if c.is_ascii_alphanumeric() || c == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                let tok = match word {
                    "and" => Tok::And,
                    "or" => Tok::Or,
                    "not" => Tok::Not,
                    "if" => Tok::If,
                    "then" => Tok::Then,
                    "else" => Tok::Else,
                    "endif" => Tok::Endif,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "null" => Tok::Null,
                    _ => Tok::Ident(word.to_owned()),
                };
                toks.push((tok, start));
            }
            other => return Err(err(i, format!("unexpected character `{}`", other as char))),
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// AST and parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Lit(Value),
    Var(String),
    List(Vec<Expr>),
    Not(Box<Expr>),
    Neg(Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Field(Box<Expr>, String),
    Index(Box<Expr>, Box<Expr>),
    Call(Box<Expr>, String, Vec<Arg>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

#[derive(Debug, Clone, PartialEq)]
enum Arg {
    Expr(Expr),
    Lambda { param: String, body: Expr },
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> FederationError {
        FederationError::Parse {
            format: "eql",
            line: 1,
            column: self.toks.get(self.pos).map(|(_, at)| at + 1).unwrap_or(0),
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        if self.eat(&tok) {
            Ok(())
        } else {
            let found =
                self.peek().map(|t| t.to_string()).unwrap_or_else(|| "end of input".to_owned());
            Err(self.err(format!("expected {tok}, found {found}")))
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Tok::And) {
            let rhs = self.cmp_expr()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(Expr::Binary(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Not) {
            return Ok(Expr::Not(Box::new(self.unary_expr()?)));
        }
        if self.eat(&Tok::Minus) {
            return Ok(Expr::Neg(Box::new(self.unary_expr()?)));
        }
        self.postfix_expr()
    }

    fn postfix_expr(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        loop {
            if self.eat(&Tok::Dot) {
                let name = match self.bump() {
                    Some(Tok::Ident(n)) => n,
                    other => {
                        return Err(self.err(format!(
                            "expected member name after `.`, found {}",
                            other
                                .map(|t| t.to_string())
                                .unwrap_or_else(|| "end of input".to_owned())
                        )))
                    }
                };
                if self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    let args = self.call_args()?;
                    e = Expr::Call(Box::new(e), name, args);
                } else {
                    e = Expr::Field(Box::new(e), name);
                }
            } else if self.eat(&Tok::LBracket) {
                let idx = self.expr()?;
                self.expect(Tok::RBracket)?;
                e = Expr::Index(Box::new(e), Box::new(idx));
            } else {
                return Ok(e);
            }
        }
    }

    fn call_args(&mut self) -> Result<Vec<Arg>> {
        let mut args = Vec::new();
        if self.eat(&Tok::RParen) {
            return Ok(args);
        }
        loop {
            // Lambda: `ident | expr`
            let is_lambda = matches!(self.peek(), Some(Tok::Ident(_)))
                && matches!(self.toks.get(self.pos + 1), Some((Tok::Pipe, _)));
            if is_lambda {
                let param = match self.bump() {
                    Some(Tok::Ident(p)) => p,
                    _ => unreachable!("checked above"),
                };
                self.expect(Tok::Pipe)?;
                let body = self.expr()?;
                args.push(Arg::Lambda { param, body });
            } else {
                args.push(Arg::Expr(self.expr()?));
            }
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => return Ok(args),
                other => {
                    return Err(self.err(format!(
                        "expected `,` or `)` in argument list, found {}",
                        other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".to_owned())
                    )))
                }
            }
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(Expr::Lit(Value::Int(i))),
            Some(Tok::Real(r)) => Ok(Expr::Lit(Value::Real(r))),
            Some(Tok::Str(s)) => Ok(Expr::Lit(Value::Str(s))),
            Some(Tok::True) => Ok(Expr::Lit(Value::Bool(true))),
            Some(Tok::False) => Ok(Expr::Lit(Value::Bool(false))),
            Some(Tok::Null) => Ok(Expr::Lit(Value::Null)),
            Some(Tok::Ident(name)) => Ok(Expr::Var(name)),
            Some(Tok::If) => {
                let cond = self.expr()?;
                self.expect(Tok::Then)?;
                let then_branch = self.expr()?;
                self.expect(Tok::Else)?;
                let else_branch = self.expr()?;
                self.expect(Tok::Endif)?;
                Ok(Expr::If(Box::new(cond), Box::new(then_branch), Box::new(else_branch)))
            }
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::LBracket) => {
                let mut items = Vec::new();
                if self.eat(&Tok::RBracket) {
                    return Ok(Expr::List(items));
                }
                loop {
                    items.push(self.expr()?);
                    match self.bump() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RBracket) => return Ok(Expr::List(items)),
                        _ => return Err(self.err("expected `,` or `]` in list literal")),
                    }
                }
            }
            other => Err(self.err(format!(
                "expected an expression, found {}",
                other.map(|t| t.to_string()).unwrap_or_else(|| "end of input".to_owned())
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

/// The variables in scope: the root bindings, then one frame per enclosing
/// lambda. Values are borrowed, never copied — a lambda binds each item
/// where it lies — and the innermost binding of a name wins.
enum Scope<'s, 'a> {
    Root(&'s [(&'s str, &'a Value)]),
    Lambda { param: &'s str, item: &'a Value, outer: &'s Scope<'s, 'a> },
}

impl<'a> Scope<'_, 'a> {
    fn lookup(&self, name: &str) -> Option<&'a Value> {
        let mut scope = self;
        loop {
            match scope {
                Scope::Root(bindings) => {
                    return bindings.iter().rev().find(|(k, _)| *k == name).map(|&(_, v)| v)
                }
                Scope::Lambda { param, item, outer } => {
                    if *param == name {
                        return Some(item);
                    }
                    scope = outer;
                }
            }
        }
    }
}

/// An evaluation result: borrowed when it names a value of the model, a
/// binding or the query itself, owned when the evaluator computed it.
type Val<'a> = Cow<'a, Value>;

/// Field `key` of a record, borrowed from a borrowed record and moved out
/// of an owned one.
fn take_field<'a>(record: Val<'a>, key: &str) -> Option<Val<'a>> {
    match record {
        Cow::Borrowed(v) => v.get(key).map(Cow::Borrowed),
        Cow::Owned(Value::Record(mut pairs)) => {
            let at = pairs.iter().position(|(k, _)| k == key)?;
            Some(Cow::Owned(pairs.swap_remove(at).1))
        }
        Cow::Owned(_) => None,
    }
}

/// Item `index` of a list, borrowed or moved out like [`take_field`].
fn take_item(list: Val<'_>, index: usize) -> Option<Val<'_>> {
    match list {
        Cow::Borrowed(v) => v.at(index).map(Cow::Borrowed),
        Cow::Owned(Value::List(mut items)) if index < items.len() => {
            Some(Cow::Owned(items.swap_remove(index)))
        }
        Cow::Owned(_) => None,
    }
}

/// The items of a list, borrowed from a borrowed list and moved out of an
/// owned one.
enum Items<'a> {
    Borrowed(std::slice::Iter<'a, Value>),
    Owned(std::vec::IntoIter<Value>),
}

impl<'a> Iterator for Items<'a> {
    type Item = Val<'a>;

    fn next(&mut self) -> Option<Val<'a>> {
        match self {
            Items::Borrowed(items) => items.next().map(Cow::Borrowed),
            Items::Owned(items) => items.next().map(Cow::Owned),
        }
    }
}

fn items(list: Val<'_>) -> Items<'_> {
    match list {
        Cow::Borrowed(Value::List(items)) => Items::Borrowed(items.iter()),
        Cow::Owned(Value::List(items)) => Items::Owned(items.into_iter()),
        _ => Items::Owned(Vec::new().into_iter()),
    }
}

fn num_pair(a: &Value, b: &Value) -> Option<(f64, f64)> {
    Some((a.as_f64()?, b.as_f64()?))
}

fn values_equal(a: &Value, b: &Value) -> bool {
    if a == b {
        return true;
    }
    match (a, b) {
        (Value::Int(_) | Value::Real(_), Value::Int(_) | Value::Real(_)) => {
            num_pair(a, b).map(|(x, y)| x == y).unwrap_or(false)
        }
        _ => false,
    }
}

/// Hashes `value` so that values [`values_equal`] calls equal hash alike.
/// At the top level numbers hash by value (`1 = 1.0`); inside lists and
/// records, where equality is structural, by variant. The two zeros hash
/// alike; NaN equals nothing, so its hash is free.
fn hash_for_equality(value: &Value, top: bool, h: &mut DefaultHasher) {
    fn real_bits(r: f64) -> u64 {
        if r == 0.0 {
            0
        } else {
            r.to_bits()
        }
    }
    match value {
        Value::Null => h.write_u8(0),
        Value::Bool(b) => h.write_u8(1 + u8::from(*b)),
        Value::Int(i) if top => {
            h.write_u8(3);
            h.write_u64(real_bits(*i as f64));
        }
        Value::Real(r) if top => {
            h.write_u8(3);
            h.write_u64(real_bits(*r));
        }
        Value::Int(i) => {
            h.write_u8(4);
            h.write_i64(*i);
        }
        Value::Real(r) => {
            h.write_u8(5);
            h.write_u64(real_bits(*r));
        }
        Value::Str(s) => {
            h.write_u8(6);
            s.hash(h);
        }
        Value::List(items) => {
            h.write_u8(7);
            h.write_usize(items.len());
            for item in items {
                hash_for_equality(item, false, h);
            }
        }
        Value::Record(pairs) => {
            h.write_u8(8);
            h.write_usize(pairs.len());
            for (k, v) in pairs {
                k.hash(h);
                hash_for_equality(v, false, h);
            }
        }
    }
}

fn eval<'a>(expr: &'a Expr, scope: &Scope<'_, 'a>) -> Result<Val<'a>> {
    match expr {
        Expr::Lit(v) => Ok(Cow::Borrowed(v)),
        Expr::Var(name) => scope
            .lookup(name)
            .map(Cow::Borrowed)
            .ok_or_else(|| FederationError::eval(format!("unknown variable `{name}`"))),
        Expr::List(items) => {
            let vals: Result<Vec<Value>> =
                items.iter().map(|e| eval(e, scope).map(Cow::into_owned)).collect();
            Ok(Cow::Owned(Value::List(vals?)))
        }
        Expr::Not(e) => Ok(Cow::Owned(Value::Bool(!eval(e, scope)?.truthy()))),
        Expr::Neg(e) => match &*eval(e, scope)? {
            Value::Int(i) => Ok(Cow::Owned(Value::Int(-*i))),
            Value::Real(r) => Ok(Cow::Owned(Value::Real(-*r))),
            other => Err(FederationError::eval(format!("cannot negate a {}", other.type_name()))),
        },
        Expr::Binary(op, lhs, rhs) => eval_binary(*op, lhs, rhs, scope).map(Cow::Owned),
        Expr::If(cond, then_branch, else_branch) => {
            if eval(cond, scope)?.truthy() {
                eval(then_branch, scope)
            } else {
                eval(else_branch, scope)
            }
        }
        Expr::Field(base, name) => {
            let b = eval(base, scope)?;
            let type_name = b.type_name();
            take_field(b, name)
                .ok_or_else(|| FederationError::eval(format!("no field `{name}` on a {type_name}")))
        }
        Expr::Index(base, idx) => {
            let b = eval(base, scope)?;
            let i = eval(idx, scope)?;
            if let (Value::Record(_), Value::Str(key)) = (&*b, &*i) {
                return take_field(b, key).ok_or_else(|| {
                    FederationError::eval(format!("no field `{key}` on the record"))
                });
            }
            let n = i.as_i64().ok_or_else(|| {
                FederationError::eval(format!(
                    "index must be an int (or a string on records), got {}",
                    i.type_name()
                ))
            })?;
            take_item(b, n as usize)
                .ok_or_else(|| FederationError::eval(format!("index {n} out of bounds")))
        }
        Expr::Call(base, name, args) => eval_call(eval(base, scope)?, name, args, scope),
    }
}

fn eval_binary<'a>(
    op: BinOp,
    lhs: &'a Expr,
    rhs: &'a Expr,
    scope: &Scope<'_, 'a>,
) -> Result<Value> {
    // Short-circuit logic first.
    match op {
        BinOp::And => {
            let l = eval(lhs, scope)?;
            if !l.truthy() {
                return Ok(Value::Bool(false));
            }
            return Ok(Value::Bool(eval(rhs, scope)?.truthy()));
        }
        BinOp::Or => {
            let l = eval(lhs, scope)?;
            if l.truthy() {
                return Ok(Value::Bool(true));
            }
            return Ok(Value::Bool(eval(rhs, scope)?.truthy()));
        }
        _ => {}
    }
    let l = eval(lhs, scope)?;
    let r = eval(rhs, scope)?;
    let type_err = |op_name: &str| {
        FederationError::eval(format!(
            "cannot apply `{op_name}` to {} and {}",
            l.type_name(),
            r.type_name()
        ))
    };
    match op {
        BinOp::Add => match (&*l, &*r) {
            (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a + b)),
            _ => num_pair(&l, &r).map(|(a, b)| Value::Real(a + b)).ok_or_else(|| type_err("+")),
        },
        BinOp::Sub => match (&*l, &*r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a - b)),
            _ => num_pair(&l, &r).map(|(a, b)| Value::Real(a - b)).ok_or_else(|| type_err("-")),
        },
        BinOp::Mul => match (&*l, &*r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a * b)),
            _ => num_pair(&l, &r).map(|(a, b)| Value::Real(a * b)).ok_or_else(|| type_err("*")),
        },
        BinOp::Div => {
            let (a, b) = num_pair(&l, &r).ok_or_else(|| type_err("/"))?;
            if b == 0.0 {
                return Err(FederationError::eval("division by zero"));
            }
            Ok(Value::Real(a / b))
        }
        BinOp::Eq => Ok(Value::Bool(values_equal(&l, &r))),
        BinOp::Ne => Ok(Value::Bool(!values_equal(&l, &r))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = match (&*l, &*r) {
                (Value::Str(a), Value::Str(b)) => a.partial_cmp(b),
                _ => {
                    let (a, b) = num_pair(&l, &r).ok_or_else(|| type_err("comparison"))?;
                    a.partial_cmp(&b)
                }
            }
            .ok_or_else(|| FederationError::eval("values are not comparable"))?;
            let pass = match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(pass))
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

/// The total order over `sortBy` keys, making every sort deterministic
/// regardless of key mix:
///
/// 1. numeric keys first ([`Value::Int`], [`Value::Real`], and strings
///    that parse as numbers), ordered by value via `f64::total_cmp`;
/// 2. then non-numeric strings (lexicographic by code point), nulls,
///    booleans (`false` < `true`), lists, and records (the latter two
///    ordered by their compact JSON rendering — a stable tiebreak);
/// 3. NaN keys sort last, after every other key, and compare equal to
///    each other.
///
/// The sort itself is stable, so items with equal keys keep their input
/// order.
fn sort_key_order(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Value) -> u8 {
        match v.as_f64() {
            Some(x) if x.is_nan() => 6,
            Some(_) => 0,
            None => match v {
                Value::Str(_) => 1,
                Value::Null => 2,
                Value::Bool(_) => 3,
                Value::List(_) => 4,
                Value::Record(_) => 5,
                // Int and Real always convert through `as_f64`.
                Value::Int(_) | Value::Real(_) => unreachable!("numeric values convert to f64"),
            },
        }
    }
    let (ra, rb) = (rank(a), rank(b));
    match ra.cmp(&rb) {
        Ordering::Equal => {}
        unequal => return unequal,
    }
    match ra {
        0 => {
            let (x, y) = (a.as_f64().unwrap_or(f64::NAN), b.as_f64().unwrap_or(f64::NAN));
            x.total_cmp(&y)
        }
        1 => a.as_str().unwrap_or_default().cmp(b.as_str().unwrap_or_default()),
        3 => match (a, b) {
            (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
            _ => Ordering::Equal,
        },
        4 | 5 => crate::json::to_string(a).cmp(&crate::json::to_string(b)),
        // Nulls (rank 2) and NaNs (rank 6) compare equal among themselves.
        _ => Ordering::Equal,
    }
}

fn lambda_arg<'e>(args: &'e [Arg], method: &str) -> Result<(&'e str, &'e Expr)> {
    match args {
        [Arg::Lambda { param, body }] => Ok((param, body)),
        _ => Err(FederationError::eval(format!("`{method}` expects exactly one lambda argument"))),
    }
}

fn no_args(args: &[Arg], method: &str) -> Result<()> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(FederationError::eval(format!("`{method}` takes no arguments")))
    }
}

fn one_expr_arg<'a>(args: &'a [Arg], method: &str, scope: &Scope<'_, 'a>) -> Result<Val<'a>> {
    match args {
        [Arg::Expr(e)] => eval(e, scope),
        _ => Err(FederationError::eval(format!("`{method}` expects exactly one argument"))),
    }
}

/// Evaluates a lambda body with `param` bound to `item` in place.
fn apply_lambda<'b>(
    param: &'b str,
    body: &'b Expr,
    item: &'b Value,
    scope: &Scope<'_, 'b>,
) -> Result<Val<'b>> {
    eval(body, &Scope::Lambda { param, item, outer: scope })
}

fn eval_call<'a>(
    recv: Val<'a>,
    method: &str,
    args: &'a [Arg],
    scope: &Scope<'_, 'a>,
) -> Result<Val<'a>> {
    // Collection operations.
    if let Value::List(list) = &*recv {
        match method {
            "select" | "reject" => {
                let (param, body) = lambda_arg(args, method)?;
                let keep_on = method == "select";
                let mut out = Vec::new();
                for item in items(recv) {
                    if apply_lambda(param, body, &item, scope)?.truthy() == keep_on {
                        out.push(item.into_owned());
                    }
                }
                return Ok(Cow::Owned(Value::List(out)));
            }
            "collect" => {
                let (param, body) = lambda_arg(args, method)?;
                let mut out = Vec::with_capacity(list.len());
                for item in items(recv) {
                    out.push(apply_lambda(param, body, &item, scope)?.into_owned());
                }
                return Ok(Cow::Owned(Value::List(out)));
            }
            "exists" => {
                let (param, body) = lambda_arg(args, method)?;
                for item in list {
                    if apply_lambda(param, body, item, scope)?.truthy() {
                        return Ok(Cow::Owned(Value::Bool(true)));
                    }
                }
                return Ok(Cow::Owned(Value::Bool(false)));
            }
            "forAll" => {
                let (param, body) = lambda_arg(args, method)?;
                for item in list {
                    if !apply_lambda(param, body, item, scope)?.truthy() {
                        return Ok(Cow::Owned(Value::Bool(false)));
                    }
                }
                return Ok(Cow::Owned(Value::Bool(true)));
            }
            "count" => {
                let (param, body) = lambda_arg(args, method)?;
                let mut n = 0i64;
                for item in list {
                    if apply_lambda(param, body, item, scope)?.truthy() {
                        n += 1;
                    }
                }
                return Ok(Cow::Owned(Value::Int(n)));
            }
            "sortBy" => {
                let (param, body) = lambda_arg(args, method)?;
                let mut keyed: Vec<(Value, Value)> = Vec::with_capacity(list.len());
                for item in items(recv) {
                    let key = apply_lambda(param, body, &item, scope)?.into_owned();
                    keyed.push((key, item.into_owned()));
                }
                keyed.sort_by(|(a, _), (b, _)| sort_key_order(a, b));
                return Ok(Cow::Owned(Value::List(keyed.into_iter().map(|(_, v)| v).collect())));
            }
            "first" => {
                no_args(args, method)?;
                return Ok(take_item(recv, 0).unwrap_or(Cow::Owned(Value::Null)));
            }
            "last" => {
                no_args(args, method)?;
                let last = list.len().checked_sub(1);
                return Ok(last
                    .and_then(|at| take_item(recv, at))
                    .unwrap_or(Cow::Owned(Value::Null)));
            }
            "size" => {
                no_args(args, method)?;
                return Ok(Cow::Owned(Value::Int(list.len() as i64)));
            }
            "isEmpty" => {
                no_args(args, method)?;
                return Ok(Cow::Owned(Value::Bool(list.is_empty())));
            }
            "sum" => {
                no_args(args, method)?;
                let mut total = 0.0;
                for item in list {
                    total += item.as_f64().ok_or_else(|| {
                        FederationError::eval(format!(
                            "`sum` over non-numeric {}",
                            item.type_name()
                        ))
                    })?;
                }
                return Ok(Cow::Owned(Value::Real(total)));
            }
            "min" | "max" => {
                no_args(args, method)?;
                let mut best: Option<f64> = None;
                for item in list {
                    let v = item.as_f64().ok_or_else(|| {
                        FederationError::eval(format!(
                            "`{method}` over non-numeric {}",
                            item.type_name()
                        ))
                    })?;
                    best = Some(match best {
                        None => v,
                        Some(b) if method == "min" => b.min(v),
                        Some(b) => b.max(v),
                    });
                }
                return Ok(Cow::Owned(best.map(Value::Real).unwrap_or(Value::Null)));
            }
            "avg" => {
                no_args(args, method)?;
                if list.is_empty() {
                    return Ok(Cow::Owned(Value::Null));
                }
                let mut total = 0.0;
                for item in list {
                    total += item
                        .as_f64()
                        .ok_or_else(|| FederationError::eval("`avg` over non-numeric value"))?;
                }
                return Ok(Cow::Owned(Value::Real(total / list.len() as f64)));
            }
            "at" => {
                let idx = one_expr_arg(args, method, scope)?;
                let n = idx.as_i64().ok_or_else(|| FederationError::eval("`at` expects an int"))?;
                return take_item(recv, n as usize)
                    .ok_or_else(|| FederationError::eval(format!("`at({n})` out of bounds")));
            }
            "includes" => {
                let needle = one_expr_arg(args, method, scope)?;
                return Ok(Cow::Owned(Value::Bool(list.iter().any(|i| values_equal(i, &needle)))));
            }
            "distinct" => {
                no_args(args, method)?;
                // Candidates for a duplicate share a bucket; `values_equal`
                // decides, and the first occurrence is kept.
                let mut out: Vec<Value> = Vec::new();
                let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
                for item in items(recv) {
                    let mut h = DefaultHasher::new();
                    hash_for_equality(&item, true, &mut h);
                    let bucket = buckets.entry(h.finish()).or_default();
                    if !bucket.iter().any(|&at| values_equal(&out[at], &item)) {
                        bucket.push(out.len());
                        out.push(item.into_owned());
                    }
                }
                return Ok(Cow::Owned(Value::List(out)));
            }
            "flatten" => {
                no_args(args, method)?;
                let mut out = Vec::new();
                for item in items(recv) {
                    match item {
                        Cow::Borrowed(Value::List(inner)) => out.extend(inner.iter().cloned()),
                        Cow::Owned(Value::List(inner)) => out.extend(inner),
                        other => out.push(other.into_owned()),
                    }
                }
                return Ok(Cow::Owned(Value::List(out)));
            }
            _ => {}
        }
    }
    // Record operations.
    if let Value::Record(pairs) = &*recv {
        match method {
            "get" => {
                let key = one_expr_arg(args, method, scope)?;
                let k =
                    key.as_str().ok_or_else(|| FederationError::eval("`get` expects a string"))?;
                return Ok(take_field(recv, k).unwrap_or(Cow::Owned(Value::Null)));
            }
            "has" => {
                let key = one_expr_arg(args, method, scope)?;
                let k =
                    key.as_str().ok_or_else(|| FederationError::eval("`has` expects a string"))?;
                return Ok(Cow::Owned(Value::Bool(recv.get(k).is_some())));
            }
            "keys" => {
                no_args(args, method)?;
                return Ok(Cow::Owned(Value::List(
                    pairs.iter().map(|(k, _)| Value::from(k.as_str())).collect(),
                )));
            }
            "values" => {
                no_args(args, method)?;
                return Ok(Cow::Owned(Value::List(pairs.iter().map(|(_, v)| v.clone()).collect())));
            }
            _ => {}
        }
    }
    eval_scalar_call(&recv, method, args, scope).map(Cow::Owned)
}

/// The string, numeric and universal operations, which all compute their
/// result.
fn eval_scalar_call<'a>(
    recv: &Value,
    method: &str,
    args: &'a [Arg],
    scope: &Scope<'_, 'a>,
) -> Result<Value> {
    // String operations.
    if let Value::Str(s) = recv {
        match method {
            "toNumber" => {
                no_args(args, method)?;
                return recv
                    .as_f64()
                    .map(Value::Real)
                    .ok_or_else(|| FederationError::eval(format!("`{s}` is not numeric")));
            }
            "length" => {
                no_args(args, method)?;
                return Ok(Value::Int(s.chars().count() as i64));
            }
            "toUpper" => {
                no_args(args, method)?;
                return Ok(Value::from(s.to_uppercase()));
            }
            "toLower" => {
                no_args(args, method)?;
                return Ok(Value::from(s.to_lowercase()));
            }
            "trim" => {
                no_args(args, method)?;
                return Ok(Value::from(s.trim()));
            }
            "contains" => {
                let needle = one_expr_arg(args, method, scope)?;
                let n = needle
                    .as_str()
                    .ok_or_else(|| FederationError::eval("`contains` expects a string"))?;
                return Ok(Value::Bool(s.contains(n)));
            }
            "startsWith" => {
                let needle = one_expr_arg(args, method, scope)?;
                let n = needle
                    .as_str()
                    .ok_or_else(|| FederationError::eval("`startsWith` expects a string"))?;
                return Ok(Value::Bool(s.starts_with(n)));
            }
            _ => {}
        }
    }
    // Numeric operations.
    if matches!(recv, Value::Int(_) | Value::Real(_)) {
        let v = recv.as_f64().expect("numeric");
        match method {
            "abs" => {
                no_args(args, method)?;
                return Ok(Value::Real(v.abs()));
            }
            "round" => {
                no_args(args, method)?;
                return Ok(Value::Int(v.round() as i64));
            }
            "floor" => {
                no_args(args, method)?;
                return Ok(Value::Int(v.floor() as i64));
            }
            "ceil" => {
                no_args(args, method)?;
                return Ok(Value::Int(v.ceil() as i64));
            }
            _ => {}
        }
    }
    // Universal operations.
    match method {
        "isDefined" => {
            no_args(args, method)?;
            Ok(Value::Bool(!matches!(recv, Value::Null)))
        }
        "asString" => {
            no_args(args, method)?;
            Ok(Value::from(match recv {
                Value::Str(s) => s.clone(),
                other => crate::json::to_string(other),
            }))
        }
        _ => Err(FederationError::eval(format!("no method `{method}` on a {}", recv.type_name()))),
    }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// A parsed, reusable EQL query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    ast: Expr,
    source: String,
}

impl Query {
    /// Parses an EQL expression.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::Parse`] on malformed input.
    pub fn parse(source: &str) -> Result<Query> {
        let toks = lex(source)?;
        let mut p = Parser { toks, pos: 0 };
        let ast = p.expr()?;
        if p.pos != p.toks.len() {
            return Err(p.err("trailing tokens after expression"));
        }
        Ok(Query { ast, source: source.to_owned() })
    }

    /// The original query text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Evaluates against a single model value, bound as both `model` and
    /// `self`; when the model is a list it is additionally bound as `rows`.
    ///
    /// The model is borrowed, not copied: variables, fields, indexing,
    /// `first`, `last`, `at` and `get` refer to it in place, and only the
    /// values the query computes — and the result — are owned.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::Eval`] on type errors, unknown variables
    /// or methods, and out-of-bounds access.
    pub fn eval(&self, model: &Value) -> Result<Value> {
        let bindings = [("model", model), ("self", model), ("rows", model)];
        let bound = if matches!(model, Value::List(_)) { 3 } else { 2 };
        Ok(eval(&self.ast, &Scope::Root(&bindings[..bound]))?.into_owned())
    }

    /// Evaluates with explicit variable bindings; a name bound twice
    /// takes its later value.
    ///
    /// # Errors
    ///
    /// See [`Query::eval`].
    pub fn eval_with<'a>(
        &self,
        bindings: impl IntoIterator<Item = (&'a str, Value)>,
    ) -> Result<Value> {
        let owned: Vec<(&str, Value)> = bindings.into_iter().collect();
        let borrowed: Vec<(&str, &Value)> = owned.iter().map(|(name, v)| (*name, v)).collect();
        Ok(eval(&self.ast, &Scope::Root(&borrowed))?.into_owned())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

/// Parses and evaluates `source` against `model` in one step.
///
/// # Errors
///
/// See [`Query::parse`] and [`Query::eval`].
pub fn eval_str(source: &str, model: &Value) -> Result<Value> {
    Query::parse(source)?.eval(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Value {
        crate::csv::parse(
            "Component,FIT,Failure_Mode,Distribution\n\
             Diode,10,Open,0.3\n\
             Diode,10,Short,0.7\n\
             Capacitor,2,Open,0.3\n\
             Capacitor,2,Short,0.7\n\
             Inductor,15,Open,0.3\n\
             Inductor,15,Short,0.7\n\
             MC,300,RAM Failure,1.0\n",
        )
        .unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        let v = eval_str("1 + 2 * 3", &Value::Null).unwrap();
        assert_eq!(v, Value::Int(7));
        assert_eq!(eval_str("(1 + 2) * 3", &Value::Null).unwrap(), Value::Int(9));
        assert_eq!(eval_str("10 / 4", &Value::Null).unwrap(), Value::Real(2.5));
        assert_eq!(eval_str("-3 + 1", &Value::Null).unwrap(), Value::Int(-2));
        assert_eq!(eval_str("'a' + 'b'", &Value::Null).unwrap(), Value::from("ab"));
    }

    #[test]
    fn comparison_and_logic() {
        assert_eq!(eval_str("1 < 2 and 2 <= 2", &Value::Null).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("1 = 1.0", &Value::Null).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'a' <> 'b'", &Value::Null).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("not (1 > 2) or false", &Value::Null).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("'abc' < 'abd'", &Value::Null).unwrap(), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // RHS would fail with unknown variable if evaluated.
        assert_eq!(eval_str("false and bogus", &Value::Null).unwrap(), Value::Bool(false));
        assert_eq!(eval_str("true or bogus", &Value::Null).unwrap(), Value::Bool(true));
    }

    #[test]
    fn select_collect_sum_over_csv() {
        let total =
            eval_str("rows.select(r | r.Component = 'Diode').collect(r | r.FIT).sum()", &rows())
                .unwrap();
        assert_eq!(total, Value::Real(20.0));
    }

    #[test]
    fn paper_style_spfm_query() {
        // λ_SPF over safety-related rows divided by total λ — the kind of
        // query the paper stores in the assurance case (§V-C).
        let q = "1.0 - rows.select(r | r.Failure_Mode = 'Open').collect(r | r.FIT * r.Distribution).sum() \
                 / rows.collect(r | r.FIT * r.Distribution).sum()";
        let v = eval_str(q, &rows()).unwrap();
        let got = v.as_f64().unwrap();
        assert!((0.0..=1.0).contains(&got));
    }

    #[test]
    fn first_last_size_at_includes() {
        let r = rows();
        assert_eq!(eval_str("rows.size()", &r).unwrap(), Value::Int(7));
        assert_eq!(eval_str("rows.first().Component", &r).unwrap(), Value::from("Diode"));
        assert_eq!(eval_str("rows.last().FIT", &r).unwrap(), Value::Int(300));
        assert_eq!(eval_str("rows.at(2).Component", &r).unwrap(), Value::from("Capacitor"));
        assert_eq!(
            eval_str("rows.collect(r | r.FIT).includes(300)", &r).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("rows.isEmpty()", &r).unwrap(), Value::Bool(false));
    }

    #[test]
    fn exists_forall_count_distinct() {
        let r = rows();
        assert_eq!(eval_str("rows.exists(r | r.FIT > 100)", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("rows.forAll(r | r.FIT > 0)", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("rows.count(r | r.Failure_Mode = 'Open')", &r).unwrap(), Value::Int(3));
        assert_eq!(
            eval_str("rows.collect(r | r.Component).distinct().size()", &r).unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn sort_by_and_min_max_avg() {
        let r = rows();
        assert_eq!(
            eval_str("rows.sortBy(r | r.FIT).first().Component", &r).unwrap(),
            Value::from("Capacitor")
        );
        assert_eq!(eval_str("rows.collect(r | r.FIT).max()", &r).unwrap(), Value::Real(300.0));
        assert_eq!(eval_str("rows.collect(r | r.FIT).min()", &r).unwrap(), Value::Real(2.0));
        let avg = eval_str("rows.collect(r | r.Distribution).avg()", &r).unwrap();
        assert!((avg.as_f64().unwrap() - (0.3 * 3.0 + 0.7 * 3.0 + 1.0) / 7.0).abs() < 1e-12);
    }

    #[test]
    fn sort_by_nan_keys_sort_last_deterministically() {
        let rows = Value::list([
            Value::record([("k", Value::Real(f64::NAN)), ("id", Value::Int(1))]),
            Value::record([("k", Value::Real(3.0)), ("id", Value::Int(2))]),
            Value::record([("k", Value::Real(f64::NAN)), ("id", Value::Int(3))]),
            Value::record([("k", Value::Real(1.0)), ("id", Value::Int(4))]),
        ]);
        let sorted = eval_str("rows.sortBy(r | r.k).collect(r | r.id)", &rows).unwrap();
        // Numeric keys first by value; NaN keys last, in stable input order.
        assert_eq!(
            sorted,
            Value::list([Value::Int(4), Value::Int(2), Value::Int(1), Value::Int(3)])
        );
    }

    #[test]
    fn sort_by_mixed_keys_use_documented_total_order() {
        let rows = Value::list([
            Value::record([("k", Value::from("beta")), ("id", Value::Int(1))]),
            Value::record([("k", Value::Real(f64::NAN)), ("id", Value::Int(2))]),
            Value::record([("k", Value::Int(7)), ("id", Value::Int(3))]),
            Value::record([("k", Value::Null), ("id", Value::Int(4))]),
            Value::record([("k", Value::from("42")), ("id", Value::Int(5))]),
        ]);
        let sorted = eval_str("rows.sortBy(r | r.k).collect(r | r.id)", &rows).unwrap();
        // Numeric keys by value (7, then the numeric string "42"), then
        // non-numeric strings, then null, then NaN last.
        assert_eq!(
            sorted,
            Value::list([
                Value::Int(3),
                Value::Int(5),
                Value::Int(1),
                Value::Int(4),
                Value::Int(2)
            ])
        );
    }

    #[test]
    fn record_and_string_methods() {
        let r = rows();
        assert_eq!(eval_str("rows.first().has('FIT')", &r).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("rows.first().get('nope')", &r).unwrap(), Value::Null);
        assert_eq!(eval_str("rows.first().keys().size()", &r).unwrap(), Value::Int(4));
        assert_eq!(eval_str("'30%'.toNumber()", &Value::Null).unwrap(), Value::Real(0.3));
        assert_eq!(eval_str("'Open'.toLower()", &Value::Null).unwrap(), Value::from("open"));
        assert_eq!(
            eval_str("'RAM Failure'.contains('RAM')", &Value::Null).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("' x '.trim().length()", &Value::Null).unwrap(), Value::Int(1));
    }

    #[test]
    fn numeric_methods_and_list_literals() {
        assert_eq!(eval_str("(0 - 2.5).abs()", &Value::Null).unwrap(), Value::Real(2.5));
        assert_eq!(eval_str("2.4.round()", &Value::Null).unwrap(), Value::Int(2));
        assert_eq!(eval_str("[1, 2, 3].sum()", &Value::Null).unwrap(), Value::Real(6.0));
        assert_eq!(eval_str("[[1,2],[3]].flatten().size()", &Value::Null).unwrap(), Value::Int(3));
        assert_eq!(eval_str("[1,2,3][1]", &Value::Null).unwrap(), Value::Int(2));
    }

    #[test]
    fn nested_lambdas_and_shadowing() {
        let v = eval_str(
            "[[1,2],[3,4]].collect(x | x.collect(x | x * 10)).flatten().sum()",
            &Value::Null,
        )
        .unwrap();
        assert_eq!(v, Value::Real(100.0));
    }

    #[test]
    fn error_cases_are_reported() {
        assert!(matches!(eval_str("bogus", &Value::Null), Err(FederationError::Eval { .. })));
        assert!(eval_str("1 / 0", &Value::Null).is_err());
        assert!(eval_str("rows.first().Nope", &rows()).is_err());
        assert!(eval_str("'x'.noSuchMethod()", &Value::Null).is_err());
        assert!(eval_str("[1].at(5)", &Value::Null).is_err());
        assert!(matches!(Query::parse("1 +"), Err(FederationError::Parse { .. })));
        assert!(matches!(Query::parse("(1"), Err(FederationError::Parse { .. })));
        assert!(matches!(Query::parse("1 2"), Err(FederationError::Parse { .. })));
    }

    #[test]
    fn eval_with_custom_bindings() {
        let q = Query::parse("target * fit").unwrap();
        let v = q.eval_with([("target", Value::Real(0.9)), ("fit", Value::Int(10))]).unwrap();
        assert_eq!(v, Value::Real(9.0));
    }

    #[test]
    fn query_display_roundtrips_source() {
        let q = Query::parse("rows.size()").unwrap();
        assert_eq!(q.to_string(), "rows.size()");
        assert_eq!(q.source(), "rows.size()");
    }

    #[test]
    fn conditionals_select_branches_lazily() {
        assert_eq!(
            eval_str("if 1 < 2 then 'yes' else 'no' endif", &Value::Null).unwrap(),
            Value::from("yes")
        );
        assert_eq!(eval_str("if false then 1 else 2 endif", &Value::Null).unwrap(), Value::Int(2));
        // The untaken branch is never evaluated.
        assert_eq!(
            eval_str("if true then 7 else (1 / 0) endif", &Value::Null).unwrap(),
            Value::Int(7)
        );
        // Nesting and use inside lambdas.
        let graded = eval_str(
            "[0.05, 0.92, 0.98].collect(s | if s >= 0.97 then 'ASIL-C' else if s >= 0.9 then 'ASIL-B' else 'below' endif endif)",
            &Value::Null,
        )
        .unwrap();
        assert_eq!(
            graded,
            Value::list([Value::from("below"), Value::from("ASIL-B"), Value::from("ASIL-C")])
        );
        assert!(Query::parse("if 1 then 2 endif").is_err(), "else is mandatory");
    }

    #[test]
    fn record_string_indexing() {
        let r = Value::record([("@fit", Value::Int(10))]);
        assert_eq!(eval_str("model['@fit']", &r).unwrap(), Value::Int(10));
        assert!(eval_str("model['missing']", &r).is_err());
    }

    #[test]
    fn isdefined_distinguishes_null() {
        assert_eq!(eval_str("null.isDefined()", &Value::Null).unwrap(), Value::Bool(false));
        assert_eq!(eval_str("1.isDefined()", &Value::Null).unwrap(), Value::Bool(true));
    }
}
