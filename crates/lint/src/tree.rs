//! The item-level source model.
//!
//! Flat token scans are precise enough for "this identifier is
//! banned" but not for anything structural: match arms, function
//! signatures, struct fields. This module adds that layer without
//! pulling in `syn` (the vendor tree has none). [`FileModel::parse`]
//! reads the lexer's delimiter partner table ([`Lexed::partner`]) to
//! step over groups and resolves the item skeleton on top: `fn`
//! signatures (name, visibility, parsed parameter list, body range),
//! `impl` and `mod` nesting, `struct` fields, `enum` variants, every
//! `match` expression with its parsed arms, and an on-demand
//! per-function `let`-binding scan.
//!
//! The model is deliberately shallow: it resolves exactly as much
//! structure as the rules in [`crate::rules`] consume, and it is
//! tolerant — an unpaired delimiter is stepped over as a plain token,
//! so a half-edited file still lints.

use crate::lexer::{Lexed, TokKind, Token};

/// A half-open token index range `[start, end)`.
pub type Range = (usize, usize);

/// One parsed function parameter.
#[derive(Debug)]
pub struct Param {
    /// The binding name (`self` for receivers; tuple patterns are
    /// skipped).
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token range of the type, after the `:`.
    pub ty: Range,
}

/// One parsed `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token index of the name (for test-region checks).
    pub name_idx: usize,
    /// Whether the signature carries `pub` (any visibility scope).
    pub is_pub: bool,
    /// Parsed parameters, in order.
    pub params: Vec<Param>,
    /// Token indices of the body braces `(open, close)`, when the
    /// function has a body (trait methods may not).
    pub body: Option<(usize, usize)>,
}

/// One parsed struct field.
#[derive(Debug)]
pub struct Field {
    /// Field name (`None` for tuple-struct fields).
    pub name: Option<String>,
    /// 1-based line the field starts on.
    pub line: u32,
    /// Token range of the field type.
    pub ty: Range,
}

/// One parsed `struct` item.
#[derive(Debug)]
pub struct StructItem {
    /// The struct name.
    pub name: String,
    /// Parsed fields (empty for unit structs).
    pub fields: Vec<Field>,
}

/// One parsed `enum` item.
#[derive(Debug)]
pub struct EnumItem {
    /// The enum name.
    pub name: String,
    /// Token index of the `enum` keyword.
    pub kw_idx: usize,
    /// `(variant name, line)` pairs in declaration order.
    pub variants: Vec<(String, u32)>,
}

/// One item in the resolved skeleton.
#[derive(Debug)]
pub enum Item {
    /// A function (free, or inside an `impl`/`mod`).
    Fn(FnItem),
    /// A struct declaration.
    Struct(StructItem),
    /// An enum declaration.
    Enum(EnumItem),
    /// An `impl` block; children are its items.
    Impl(Vec<Item>),
    /// A `mod name { … }` block; children are its items.
    Mod(Vec<Item>),
}

/// One parsed match arm.
#[derive(Debug)]
pub struct Arm {
    /// Token range of the pattern, guard excluded.
    pub pat: Range,
    /// 1-based line the pattern starts on.
    pub line: u32,
}

/// One parsed `match` expression.
#[derive(Debug)]
pub struct MatchExpr {
    /// Token index of the `match` keyword.
    pub kw_idx: usize,
    /// Token range of the scrutinee (between `match` and the body).
    pub scrutinee: Range,
    /// Parsed arms, in order.
    pub arms: Vec<Arm>,
}

/// The fully resolved model of one lexed file.
#[derive(Debug)]
pub struct FileModel<'a> {
    /// The underlying token stream.
    pub tokens: &'a [Token],
    /// The lexer's delimiter partner table ([`Lexed::partner`]).
    pub partner: &'a [usize],
    /// The item skeleton (top level; `impl`/`mod` nest inside).
    pub items: Vec<Item>,
    /// Every `match` expression in the file, in source order.
    pub matches: Vec<MatchExpr>,
}

impl<'a> FileModel<'a> {
    /// Parses the item skeleton and all match expressions of `lexed`.
    pub fn parse(lexed: &'a Lexed) -> FileModel<'a> {
        let tokens = &lexed.tokens;
        let partner = &lexed.partner;
        let items = parse_items(tokens, partner, 0, tokens.len());
        let matches = parse_matches(tokens, partner);
        FileModel {
            tokens,
            partner,
            items,
            matches,
        }
    }

    /// Every function in the file, `impl`/`mod` nesting flattened.
    pub fn functions(&self) -> Vec<&FnItem> {
        let mut out = Vec::new();
        collect_fns(&self.items, &mut out);
        out
    }

    /// Every struct in the file, nesting flattened.
    pub fn structs(&self) -> Vec<&StructItem> {
        let mut out = Vec::new();
        collect_structs(&self.items, &mut out);
        out
    }

    /// Every enum in the file, nesting flattened.
    pub fn enums(&self) -> Vec<&EnumItem> {
        let mut out = Vec::new();
        collect_enums(&self.items, &mut out);
        out
    }

    /// `let` bindings anywhere inside the body range `(open, close)`
    /// of a function: `(name, line, ty-or-empty, init-or-empty)`.
    /// Tuple/struct-pattern lets are skipped — the rules only resolve
    /// single-name bindings.
    pub fn let_bindings(&self, body: (usize, usize)) -> Vec<LetBinding> {
        let toks = self.tokens;
        let mut out = Vec::new();
        let mut k = body.0 + 1;
        while k < body.1.min(toks.len()) {
            if !toks[k].is_ident("let") {
                k += 1;
                continue;
            }
            let mut j = k + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) else {
                k = j + 1;
                continue;
            };
            let name = name_tok.text.clone();
            let line = name_tok.line;
            j += 1;
            // Optional `: Type` up to a top-level `=` or `;` (angle
            // depth tracked: associated-type bindings contain `=`).
            let mut ty: Range = (j, j);
            if toks.get(j).is_some_and(|t| t.is_punct(":")) {
                j += 1;
                let ty_start = j;
                let mut angle = 0i32;
                while j < body.1.min(toks.len()) {
                    let t = &toks[j];
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "<" => angle += 1,
                            ">" => angle -= 1,
                            ">>" => angle -= 2,
                            "=" if angle <= 0 => break,
                            ";" => break,
                            _ => {}
                        }
                        if self.partner[j] > j {
                            j = self.partner[j];
                        }
                    }
                    j += 1;
                }
                ty = (ty_start, j);
            }
            // Optional `= init` up to the terminating `;`.
            let mut init: Range = (j, j);
            if toks.get(j).is_some_and(|t| t.is_punct("=")) {
                j += 1;
                let init_start = j;
                while j < body.1.min(toks.len()) {
                    if toks[j].is_punct(";") {
                        break;
                    }
                    if self.partner[j] > j {
                        j = self.partner[j];
                    }
                    j += 1;
                }
                init = (init_start, j);
            }
            out.push(LetBinding {
                name,
                line,
                ty,
                init,
            });
            k = j + 1;
        }
        out
    }

    /// `true` when `range` contains the path prefix `name::` anywhere
    /// (any nesting depth).
    pub fn range_mentions_path(&self, range: Range, name: &str) -> bool {
        let end = range.1.min(self.tokens.len());
        (range.0..end).any(|i| {
            self.tokens[i].is_ident(name)
                && self.tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
        })
    }

    /// `true` when the arm's pattern has a bare `_` as one of its
    /// top-level `|` alternatives (field wildcards like `seq: _` and
    /// rest patterns `..` do not count).
    pub fn arm_is_wildcard(&self, arm: &Arm) -> bool {
        let toks = self.tokens;
        let end = arm.pat.1.min(toks.len());
        let mut alt: Vec<usize> = Vec::new();
        let mut i = arm.pat.0;
        let mut wildcard = false;
        let flush = |alt: &mut Vec<usize>| {
            if alt.len() == 1 && toks[alt[0]].is_ident("_") {
                return true;
            }
            alt.clear();
            false
        };
        while i < end {
            if toks[i].is_punct("|") {
                wildcard |= flush(&mut alt);
                alt.clear();
            } else {
                alt.push(i);
                if self.partner[i] > i {
                    i = self.partner[i];
                }
            }
            i += 1;
        }
        wildcard | flush(&mut alt)
    }
}

/// One `let` binding found by [`FileModel::let_bindings`].
#[derive(Debug)]
pub struct LetBinding {
    /// The bound name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Token range of the type annotation (empty when absent).
    pub ty: Range,
    /// Token range of the initializer (empty when absent).
    pub init: Range,
}

fn collect_fns<'a>(items: &'a [Item], out: &mut Vec<&'a FnItem>) {
    for item in items {
        match item {
            Item::Fn(f) => out.push(f),
            Item::Impl(children) | Item::Mod(children) => collect_fns(children, out),
            _ => {}
        }
    }
}

fn collect_structs<'a>(items: &'a [Item], out: &mut Vec<&'a StructItem>) {
    for item in items {
        match item {
            Item::Struct(s) => out.push(s),
            Item::Impl(children) | Item::Mod(children) => collect_structs(children, out),
            _ => {}
        }
    }
}

fn collect_enums<'a>(items: &'a [Item], out: &mut Vec<&'a EnumItem>) {
    for item in items {
        match item {
            Item::Enum(e) => out.push(e),
            Item::Impl(children) | Item::Mod(children) => collect_enums(children, out),
            _ => {}
        }
    }
}

/// Parses one item level: the token range `[start, end)` must sit at a
/// single nesting depth (the whole file, a `mod` body, an `impl`
/// body). Function bodies are *not* descended into — statements are
/// not items (matches are collected separately; `let`s on demand).
fn parse_items(tokens: &[Token], partner: &[usize], start: usize, end: usize) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = start;
    while i < end.min(tokens.len()) {
        let t = &tokens[i];
        if let Some(next) = attr_end(tokens, partner, i) {
            i = next;
            continue;
        }
        if t.kind != TokKind::Ident {
            if partner[i] > i {
                i = partner[i]; // stray group at item level (e.g. macro body)
            }
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "use" => i = skip_to_semi(tokens, partner, i, end),
            "mod" => {
                if let Some(open) = named_block(tokens, partner, i, end) {
                    let close = partner[open];
                    items.push(Item::Mod(parse_items(tokens, partner, open + 1, close)));
                    i = close + 1;
                } else {
                    i = skip_to_semi(tokens, partner, i, end);
                }
            }
            "impl" => {
                if let Some(open) = next_brace(tokens, partner, i + 1, end) {
                    let close = partner[open];
                    items.push(Item::Impl(parse_items(tokens, partner, open + 1, close)));
                    i = close + 1;
                } else {
                    i += 1;
                }
            }
            "fn" => {
                let (item, next) = parse_fn(tokens, partner, i, end);
                if let Some(f) = item {
                    items.push(Item::Fn(f));
                }
                i = next;
            }
            "struct" => {
                let (item, next) = parse_struct(tokens, partner, i, end);
                if let Some(s) = item {
                    items.push(Item::Struct(s));
                }
                i = next;
            }
            "enum" => {
                let (item, next) = parse_enum(tokens, partner, i, end);
                if let Some(e) = item {
                    items.push(Item::Enum(e));
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    items
}

/// `mod name {`: returns the brace index.
fn named_block(tokens: &[Token], partner: &[usize], kw: usize, end: usize) -> Option<usize> {
    if tokens.get(kw + 1)?.kind != TokKind::Ident {
        return None;
    }
    let open = kw + 2;
    (open < end && tokens.get(open).is_some_and(|t| t.is_punct("{")) && partner[open] > open)
        .then_some(open)
}

fn skip_to_semi(tokens: &[Token], partner: &[usize], mut i: usize, end: usize) -> usize {
    while i < end.min(tokens.len()) {
        if tokens[i].is_punct(";") {
            return i + 1;
        }
        if partner[i] > i {
            i = partner[i];
        }
        i += 1;
    }
    i
}

/// First `{` group at the current level in `[from, end)`.
fn next_brace(tokens: &[Token], partner: &[usize], mut i: usize, end: usize) -> Option<usize> {
    while i < end.min(tokens.len()) {
        if tokens[i].is_punct("{") && partner[i] > i {
            return Some(i);
        }
        if tokens[i].is_punct(";") {
            return None;
        }
        if partner[i] > i {
            i = partner[i];
        }
        i += 1;
    }
    None
}

/// When `tokens[i..]` starts an attribute `#[ … ]`, the index past it.
fn attr_end(tokens: &[Token], partner: &[usize], i: usize) -> Option<usize> {
    (tokens.get(i)?.is_punct("#") && tokens.get(i + 1)?.is_punct("["))
        .then(|| partner[i + 1].max(i + 1) + 1)
}

/// Index past the generic parameter list starting at `tokens[j]`, or
/// `j` when there is none. An angle-depth walk; groups inside, e.g.
/// `Fn(u32) -> u64` bounds, are stepped over via the partner table.
fn skip_generics(tokens: &[Token], partner: &[usize], mut j: usize, end: usize) -> usize {
    if !tokens.get(j).is_some_and(|t| t.is_punct("<")) {
        return j;
    }
    let mut depth = 0i32;
    while j < end.min(tokens.len()) {
        match tokens[j].text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            _ => j = partner[j].max(j),
        }
        j += 1;
        if depth <= 0 {
            break;
        }
    }
    j
}

/// Parses `fn name <generics?> (params) -> ret? { body }?` starting at
/// the `fn` keyword. Returns the item and the resume index.
fn parse_fn(tokens: &[Token], partner: &[usize], kw: usize, end: usize) -> (Option<FnItem>, usize) {
    let Some(name_tok) = tokens.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
        return (None, kw + 1);
    };
    let is_pub = fn_is_pub(tokens, partner, kw);
    let j = skip_generics(tokens, partner, kw + 2, end);
    if !tokens.get(j).is_some_and(|t| t.is_punct("(")) || partner[j] <= j {
        return (None, kw + 2);
    }
    let params = parse_params(tokens, partner, j + 1, partner[j]);
    let after_params = partner[j] + 1;
    // Body: the next `{` group before any `;` at this level.
    let body = next_brace(tokens, partner, after_params, end).map(|open| (open, partner[open]));
    let resume = match body {
        Some((_, close)) => close + 1,
        None => skip_to_semi(tokens, partner, after_params, end),
    };
    (
        Some(FnItem {
            name: name_tok.text.clone(),
            line: name_tok.line,
            name_idx: kw + 1,
            is_pub,
            params,
            body,
        }),
        resume,
    )
}

/// Whether the tokens before the `fn` keyword carry a `pub` modifier.
fn fn_is_pub(tokens: &[Token], partner: &[usize], kw: usize) -> bool {
    let mut b = kw;
    while b > 0 {
        b -= 1;
        let t = &tokens[b];
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern")
        {
            continue;
        }
        if t.kind == TokKind::Str {
            continue; // extern "C"
        }
        if t.is_punct(")") && partner[b] < b {
            b = partner[b];
            continue; // pub(crate) scope parens
        }
        return t.is_ident("pub");
    }
    false
}

/// Splits a parameter range on top-level commas (angle depth tracked —
/// `Map<K, V>` must not split) and resolves `name: Type` per segment.
fn parse_params(tokens: &[Token], partner: &[usize], start: usize, end: usize) -> Vec<Param> {
    let mut params = Vec::new();
    let mut seg_start = start;
    let mut angle = 0i32;
    let mut i = start;
    while i <= end.min(tokens.len()) {
        let at_end = i == end.min(tokens.len());
        if !at_end {
            let t = &tokens[i];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    ">>" => angle -= 2,
                    _ => {}
                }
                if partner[i] > i {
                    i = partner[i];
                    i += 1;
                    continue;
                }
            }
        }
        if at_end || (tokens[i].is_punct(",") && angle <= 0) {
            if let Some(p) = parse_param(tokens, partner, seg_start, i) {
                params.push(p);
            }
            seg_start = i + 1;
            if at_end {
                break;
            }
        }
        i += 1;
    }
    params
}

fn parse_param(tokens: &[Token], partner: &[usize], start: usize, end: usize) -> Option<Param> {
    // Receivers: `self`, `&self`, `&mut self`, `&'a self`.
    let idents: Vec<usize> = (start..end.min(tokens.len()))
        .filter(|&i| tokens[i].kind == TokKind::Ident)
        .collect();
    if idents.iter().any(|&i| tokens[i].is_ident("self")) {
        let i = *idents.iter().find(|&&i| tokens[i].is_ident("self"))?;
        return Some(Param {
            name: "self".to_string(),
            line: tokens[i].line,
            ty: (end, end),
        });
    }
    // First top-level `:` splits pattern from type (`::` is one token).
    let mut colon = None;
    let mut i = start;
    while i < end.min(tokens.len()) {
        if tokens[i].is_punct(":") {
            colon = Some(i);
            break;
        }
        if partner[i] > i {
            i = partner[i];
        }
        i += 1;
    }
    let colon = colon?;
    let name_tok = (start..colon)
        .rev()
        .map(|i| &tokens[i])
        .find(|t| t.kind == TokKind::Ident && t.text != "mut")?;
    Some(Param {
        name: name_tok.text.clone(),
        line: name_tok.line,
        ty: (colon + 1, end),
    })
}

/// Parses `struct Name;` / `struct Name(T, U);` / `struct Name { … }`.
fn parse_struct(
    tokens: &[Token],
    partner: &[usize],
    kw: usize,
    end: usize,
) -> (Option<StructItem>, usize) {
    let Some(name_tok) = tokens.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
        return (None, kw + 1);
    };
    let j = skip_generics(tokens, partner, kw + 2, end);
    let mut fields = Vec::new();
    let resume;
    if tokens.get(j).is_some_and(|t| t.is_punct("(")) && partner[j] > j {
        // Tuple struct: each top-level segment is a type.
        let close = partner[j];
        let mut seg = j + 1;
        let mut i = j + 1;
        while i <= close {
            if i == close || tokens[i].is_punct(",") {
                if seg < i {
                    fields.push(Field {
                        name: None,
                        line: tokens[seg].line,
                        ty: (seg, i),
                    });
                }
                seg = i + 1;
            } else if partner[i] > i {
                i = partner[i];
            }
            i += 1;
        }
        resume = skip_to_semi(tokens, partner, close + 1, end);
    } else if let Some(open) = next_brace(tokens, partner, j, end) {
        let close = partner[open];
        let mut i = open + 1;
        let mut seg = i;
        while i <= close {
            if i == close || (tokens[i].is_punct(",") && partner[i] == i) {
                if let Some(f) = parse_field(tokens, partner, seg, i) {
                    fields.push(f);
                }
                seg = i + 1;
            } else if partner[i] > i {
                i = partner[i];
            }
            i += 1;
        }
        resume = close + 1;
    } else {
        resume = skip_to_semi(tokens, partner, j, end);
    }
    (
        Some(StructItem {
            name: name_tok.text.clone(),
            fields,
        }),
        resume,
    )
}

fn parse_field(tokens: &[Token], partner: &[usize], start: usize, end: usize) -> Option<Field> {
    let mut i = start;
    // Skip attributes and visibility.
    while i < end {
        let t = &tokens[i];
        if let Some(next) = attr_end(tokens, partner, i) {
            i = next;
        } else if t.is_ident("pub") {
            i += 1;
            if tokens.get(i).is_some_and(|t| t.is_punct("(")) && partner[i] > i {
                i = partner[i] + 1;
            }
        } else {
            break;
        }
    }
    let name_tok = tokens.get(i).filter(|t| t.kind == TokKind::Ident)?;
    if !tokens.get(i + 1).is_some_and(|t| t.is_punct(":")) {
        return None;
    }
    Some(Field {
        name: Some(name_tok.text.clone()),
        line: name_tok.line,
        ty: (i + 2, end),
    })
}

/// Parses `enum Name { A, B(T), C { … } }` variants.
fn parse_enum(
    tokens: &[Token],
    partner: &[usize],
    kw: usize,
    end: usize,
) -> (Option<EnumItem>, usize) {
    let Some(name_tok) = tokens.get(kw + 1).filter(|t| t.kind == TokKind::Ident) else {
        return (None, kw + 1);
    };
    let Some(open) = next_brace(tokens, partner, kw + 2, end) else {
        return (None, kw + 2);
    };
    let close = partner[open];
    let mut variants = Vec::new();
    let mut i = open + 1;
    let mut expect_variant = true;
    while i < close {
        let t = &tokens[i];
        if let Some(next) = attr_end(tokens, partner, i) {
            i = next;
            continue;
        }
        if t.is_punct(",") {
            expect_variant = true;
            i += 1;
            continue;
        }
        if expect_variant && t.kind == TokKind::Ident {
            variants.push((t.text.clone(), t.line));
            expect_variant = false;
        }
        if partner[i] > i {
            i = partner[i];
        }
        i += 1;
    }
    (
        Some(EnumItem {
            name: name_tok.text.clone(),
            kw_idx: kw,
            variants,
        }),
        close + 1,
    )
}

/// Collects every `match` expression: scrutinee range plus parsed arms.
fn parse_matches(tokens: &[Token], partner: &[usize]) -> Vec<MatchExpr> {
    let mut out = Vec::new();
    for kw in 0..tokens.len() {
        if !tokens[kw].is_ident("match") {
            continue;
        }
        // Scrutinee: everything up to the first `{` at this level.
        let mut j = kw + 1;
        let mut body_open = None;
        while j < tokens.len() {
            if tokens[j].is_punct("{") && partner[j] > j {
                body_open = Some(j);
                break;
            }
            if tokens[j].is_punct(";") || tokens[j].is_punct("}") {
                break; // not a match expression after all
            }
            if partner[j] > j {
                j = partner[j];
            }
            j += 1;
        }
        let Some(open) = body_open else { continue };
        let close = partner[open];
        out.push(MatchExpr {
            kw_idx: kw,
            scrutinee: (kw + 1, open),
            arms: parse_arms(tokens, partner, open + 1, close),
        });
    }
    out
}

/// Parses the arms inside a match body range.
fn parse_arms(tokens: &[Token], partner: &[usize], start: usize, end: usize) -> Vec<Arm> {
    let mut arms = Vec::new();
    let mut i = start;
    while i < end.min(tokens.len()) {
        // Skip arm attributes.
        while i < end {
            let Some(next) = attr_end(tokens, partner, i) else {
                break;
            };
            i = next;
        }
        if i >= end {
            break;
        }
        let pat_start = i;
        let mut guard = None;
        let mut arrow = None;
        let mut j = i;
        while j < end {
            let t = &tokens[j];
            if t.is_punct("=>") {
                arrow = Some(j);
                break;
            }
            if t.is_ident("if") && guard.is_none() {
                guard = Some(j);
            }
            if partner[j] > j {
                j = partner[j];
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let pat_end = guard.unwrap_or(arrow);
        arms.push(Arm {
            pat: (pat_start, pat_end),
            line: tokens[pat_start].line,
        });
        // Arm body: a brace group, or tokens up to the top-level comma.
        let mut k = arrow + 1;
        if k < end && tokens[k].is_punct("{") && partner[k] > k {
            k = partner[k] + 1;
            if k < end && tokens[k].is_punct(",") {
                k += 1;
            }
        } else {
            while k < end {
                if tokens[k].is_punct(",") {
                    k += 1;
                    break;
                }
                if partner[k] > k {
                    k = partner[k];
                }
                k += 1;
            }
        }
        i = k;
    }
    arms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn partner_table_pairs_delimiters() {
        let lexed = lex("fn f(a: u32) { g([1, 2]); }");
        let partner = &lexed.partner;
        for (i, t) in lexed.tokens.iter().enumerate() {
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                assert!(partner[i] > i, "opener {i} unpaired");
                assert_eq!(partner[partner[i]], i);
            }
        }
    }

    #[test]
    fn unbalanced_input_does_not_panic() {
        for src in ["fn f( {", "}}}", "fn f) { ]"] {
            let lexed = lex(src);
            assert_eq!(lexed.partner.len(), lexed.tokens.len());
            let _ = FileModel::parse(&lexed);
        }
    }

    #[test]
    fn fn_signature_resolves_params_and_generics() {
        let lexed = lex(
            "impl X { pub fn go<F: Fn(u32) -> u64>(&mut self, dist: f64, m: Map<K, V>) -> u64 { 0 } }",
        );
        let model = FileModel::parse(&lexed);
        let fns = model.functions();
        assert_eq!(fns.len(), 1);
        let f = fns[0];
        assert_eq!(f.name, "go");
        assert!(f.is_pub);
        assert!(f.body.is_some());
        let names: Vec<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["self", "dist", "m"]);
    }

    #[test]
    fn struct_fields_resolve_types() {
        let lexed = lex("pub struct S { pub a: Rc<RefCell<u32>>, raw: *const u8 }");
        let model = FileModel::parse(&lexed);
        let s = &model.structs()[0];
        assert_eq!(s.name, "S");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[1].name.as_deref(), Some("raw"));
        assert!(model.tokens[s.fields[1].ty.0].is_punct("*"));
    }

    #[test]
    fn match_arms_parse_with_guards_and_wildcards() {
        let lexed = lex(
            "fn f(e: E) -> u32 { match e { E::A { x: _, .. } => 1, E::B | _ => 2, _ if c() => 3, } }",
        );
        let model = FileModel::parse(&lexed);
        assert_eq!(model.matches.len(), 1);
        let m = &model.matches[0];
        assert_eq!(m.arms.len(), 3);
        assert!(
            !model.arm_is_wildcard(&m.arms[0]),
            "field `_` is not a wildcard arm"
        );
        assert!(
            model.arm_is_wildcard(&m.arms[1]),
            "`E::B | _` is a wildcard arm"
        );
        assert!(
            model.arm_is_wildcard(&m.arms[2]),
            "guarded `_` is a wildcard arm"
        );
        assert_eq!(
            m.arms[2].pat.1 - m.arms[2].pat.0,
            1,
            "the guard is not part of the pattern"
        );
    }

    #[test]
    fn nested_matches_are_all_collected() {
        let lexed = lex("fn f() { match a { X => match b { Y => 1, _ => 2 }, _ => 0 } }");
        let model = FileModel::parse(&lexed);
        assert_eq!(model.matches.len(), 2);
    }

    #[test]
    fn let_bindings_scan_resolves_types_and_inits() {
        let lexed = lex(
            "fn f() { let mut rng = StdRng::seed_from_u64(1); if x { let t: Foo<Item = u32> = g(); } }",
        );
        let model = FileModel::parse(&lexed);
        let body = model.functions()[0].body.expect("body");
        let lets = model.let_bindings(body);
        assert_eq!(lets.len(), 2);
        assert_eq!(lets[0].name, "rng");
        assert!(model.range_mentions_path(lets[0].init, "StdRng"));
        assert_eq!(lets[1].name, "t");
    }

    #[test]
    fn enum_variants_resolve() {
        let lexed = lex("pub enum E { A, B(u32), C { x: u8 }, }");
        let model = FileModel::parse(&lexed);
        let e = &model.enums()[0];
        let names: Vec<&str> = e.variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }
}
