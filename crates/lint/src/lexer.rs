//! A hand-rolled Rust token scanner.
//!
//! The vendor tree has no `syn`, so simlint lexes source files itself.
//! The scanner understands exactly as much Rust as the rules need:
//! identifiers, integer vs. float literals, string/char/lifetime
//! disambiguation, nested block comments, raw strings, and multi-char
//! operators (`::`, `==`, `=>`, ...). It also extracts
//! `// simlint: allow(<rule>) — <reason>` suppression directives from
//! comments and pairs every `(`/`[`/`{` with its closer in one pass.
//! That partner table is the file's only delimiter matcher: the
//! `#[cfg(test)]` regions computed here, the item model in
//! [`crate::tree`] and the rules all read it.

/// The coarse kind of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// An integer literal (including hex/octal/binary).
    Int,
    /// A floating-point literal (`0.0`, `1.`, `1e-9`, `2.5f64`).
    Float,
    /// A string, byte-string or raw-string literal.
    Str,
    /// A character or byte literal.
    Char,
    /// A lifetime (`'a`).
    Lifetime,
    /// Punctuation, possibly multi-character (`::`, `==`, `=>`).
    Punct,
}

/// One scanned token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The exact source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// `true` when this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// `true` when this is the punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }
}

/// A `simlint:` directive found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based line of the comment (its last line, for block comments).
    pub line: u32,
    /// Rule name inside `allow(...)`, verbatim.
    pub rule: String,
    /// Whether a non-empty justification follows the `allow(...)`.
    pub has_reason: bool,
    /// Whether the directive parsed as `allow(<rule>)` at all.
    pub well_formed: bool,
}

/// The result of scanning one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order (comments and whitespace stripped).
    pub tokens: Vec<Token>,
    /// All `simlint:` directives found in comments.
    pub directives: Vec<Directive>,
    /// Delimiter partner table: `partner[open] == close` and
    /// `partner[close] == open` for every matched `(`/`[`/`{` pair,
    /// `partner[i] == i` everywhere else, including every delimiter
    /// left unpaired by unbalanced input.
    pub partner: Vec<usize>,
    /// `in_test[i]` is `true` when `tokens[i]` is inside a
    /// `#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
}

/// Multi-character operators, longest first so maximal munch works.
const MULTI_PUNCT: [&str; 23] = [
    "..=", "<<=", ">>=", "..", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "|=", "&=",
];

/// Scans `src` into tokens, directives, the delimiter partner table
/// and test-region marks.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut directives = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;

    while i < bytes.len() {
        // Non-ASCII only appears inside comments and strings in the code
        // we lint; anywhere else, skip the whole character so the slices
        // below always land on a UTF-8 boundary.
        if bytes[i] >= 0x80 {
            i += src[i..].chars().next().map_or(1, char::len_utf8);
            continue;
        }
        let c = bytes[i] as char;
        // Whitespace.
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also doc comments).
        if c == '/' && bytes.get(i + 1) == Some(&b'/') {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            scan_directive(&src[start..i], line, &mut directives);
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && bytes.get(i + 1) == Some(&b'*') {
            let start = i;
            let mut depth = 1u32;
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            // Attach to the closing line so "line above" suppression works
            // for block comments too.
            scan_directive(&src[start..i], line, &mut directives);
            continue;
        }
        // Raw / byte strings: r"..", r#".."#, b"..", br#"..“#.
        if c == 'r' || c == 'b' {
            if let Some((len, newlines)) = raw_or_byte_string_len(&bytes[i..]) {
                tokens.push(Token {
                    kind: TokKind::Str,
                    text: String::from("\"raw\""),
                    line,
                });
                line += newlines;
                i += len;
                continue;
            }
        }
        // Plain string literal.
        if c == '"' {
            let start_line = line;
            i += 1;
            while i < bytes.len() {
                match bytes[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            tokens.push(Token {
                kind: TokKind::Str,
                text: String::from("\"str\""),
                line: start_line,
            });
            continue;
        }
        // Char literal vs. lifetime.
        if c == '\'' {
            if bytes.get(i + 1) == Some(&b'\\') {
                // Escaped char literal: skip to the closing quote.
                i += 2;
                while i < bytes.len() && bytes[i] != b'\'' {
                    i += 1;
                }
                i += 1;
                tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::from("'c'"),
                    line,
                });
            } else if bytes.get(i + 2) == Some(&b'\'') {
                i += 3;
                tokens.push(Token {
                    kind: TokKind::Char,
                    text: String::from("'c'"),
                    line,
                });
            } else {
                // Lifetime: consume ident chars.
                let start = i;
                i += 1;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            continue;
        }
        // Identifier / keyword.
        if is_ident_start(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_ident_continue(bytes[i]) {
                i += 1;
            }
            tokens.push(Token {
                kind: TokKind::Ident,
                text: src[start..i].to_string(),
                line,
            });
            continue;
        }
        // Number literal.
        if bytes[i].is_ascii_digit() {
            let (len, kind) = number_len(&bytes[i..]);
            tokens.push(Token {
                kind,
                text: src[i..i + len].to_string(),
                line,
            });
            i += len;
            continue;
        }
        // Punctuation, longest match first.
        let rest = &src[i..];
        let mut matched = None;
        for op in MULTI_PUNCT {
            if rest.starts_with(op) {
                matched = Some(op);
                break;
            }
        }
        if let Some(op) = matched {
            tokens.push(Token {
                kind: TokKind::Punct,
                text: op.to_string(),
                line,
            });
            i += op.len();
        } else {
            tokens.push(Token {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
            });
            i += c.len_utf8();
        }
    }

    let partner = pair_delimiters(&tokens);
    let in_test = mark_test_regions(&tokens, &partner);
    Lexed {
        tokens,
        directives,
        partner,
        in_test,
    }
}

/// Pairs every `(`/`[`/`{` with its closer. Unbalanced input degrades
/// instead of failing: a closer pairs with the innermost open group of
/// its own family and leaves any mismatched groups above that one
/// unpaired, a closer with no such group stays unpaired, and groups
/// still open at end of file stay unpaired.
fn pair_delimiters(tokens: &[Token]) -> Vec<usize> {
    let mut partner: Vec<usize> = (0..tokens.len()).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let opener = match t.text.as_str() {
            "(" | "[" | "{" => {
                open.push(i);
                continue;
            }
            ")" => "(",
            "]" => "[",
            "}" => "{",
            _ => continue,
        };
        if let Some(at) = open.iter().rposition(|&o| tokens[o].text == opener) {
            partner[open[at]] = i;
            partner[i] = open[at];
            open.truncate(at);
        }
    }
    partner
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || (b as char).is_ascii_alphabetic()
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || (b as char).is_ascii_alphanumeric()
}

/// Length and newline count of a raw/byte string starting at `bytes[0]`,
/// or `None` when the prefix is not actually a string.
fn raw_or_byte_string_len(bytes: &[u8]) -> Option<(usize, u32)> {
    let mut j = 0usize;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    let raw = bytes.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while raw && bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    if !raw && j == 0 {
        // Plain `"` is handled by the caller.
        return None;
    }
    j += 1;
    let mut newlines = 0u32;
    while j < bytes.len() {
        if !raw && bytes[j] == b'\\' {
            j += 2;
            continue;
        }
        if bytes[j] == b'\n' {
            newlines += 1;
        }
        if bytes[j] == b'"' {
            let mut k = 0usize;
            while k < hashes && bytes.get(j + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return Some((j + 1 + hashes, newlines));
            }
        }
        j += 1;
    }
    Some((j, newlines))
}

/// Length and kind (int vs. float) of a number literal at `bytes[0]`.
fn number_len(bytes: &[u8]) -> (usize, TokKind) {
    let mut j = 0usize;
    if bytes.len() > 1 && bytes[0] == b'0' && matches!(bytes[1], b'x' | b'o' | b'b') {
        j = 2;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        return (j, TokKind::Int);
    }
    while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
        j += 1;
    }
    let mut float = false;
    // Fractional part: a `.` not starting a range (`..`) or a method call.
    if j < bytes.len() && bytes[j] == b'.' {
        let next = bytes.get(j + 1).copied();
        let starts_ident = next.is_some_and(is_ident_start);
        let starts_range = next == Some(b'.');
        if !starts_ident && !starts_range {
            float = true;
            j += 1;
            while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
                j += 1;
            }
        }
    }
    // Exponent.
    if j < bytes.len() && matches!(bytes[j], b'e' | b'E') {
        let mut k = j + 1;
        if matches!(bytes.get(k), Some(b'+') | Some(b'-')) {
            k += 1;
        }
        if bytes.get(k).is_some_and(|b| b.is_ascii_digit()) {
            float = true;
            j = k;
            while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'_') {
                j += 1;
            }
        }
    }
    // Type suffix (`f64`, `u32`, ...).
    let suffix_start = j;
    while j < bytes.len() && is_ident_continue(bytes[j]) {
        j += 1;
    }
    if !float && bytes[suffix_start..j].starts_with(b"f") {
        float = true;
    }
    (j, if float { TokKind::Float } else { TokKind::Int })
}

/// Extracts a `simlint:` directive from one comment's text, if present.
///
/// Doc comments (`///`, `//!`, `/**`, `/*!`) are ignored: they document
/// APIs — and this tool's own docs quote the directive syntax — so a
/// suppression must be a plain comment at the offending site.
fn scan_directive(comment: &str, line: u32, out: &mut Vec<Directive>) {
    let is_doc = comment.starts_with("///")
        || comment.starts_with("//!")
        || comment.starts_with("/**")
        || comment.starts_with("/*!");
    if is_doc {
        return;
    }
    let Some(pos) = comment.find("simlint:") else {
        return;
    };
    let body = comment[pos + "simlint:".len()..].trim_start();
    let Some(args) = body.strip_prefix("allow(") else {
        out.push(Directive {
            line,
            rule: String::new(),
            has_reason: false,
            well_formed: false,
        });
        return;
    };
    let Some(close) = args.find(')') else {
        out.push(Directive {
            line,
            rule: String::new(),
            has_reason: false,
            well_formed: false,
        });
        return;
    };
    let rule = args[..close].trim().to_string();
    // A justification must follow: anything with at least a few
    // non-separator characters after the closing parenthesis.
    let reason = args[close + 1..]
        .trim_start_matches(['—', '-', '–', ':', ' ', '\t'])
        .trim();
    out.push(Directive {
        line,
        rule,
        has_reason: reason.chars().filter(|c| !c.is_whitespace()).count() >= 3,
        well_formed: true,
    });
}

/// Marks every token inside a `#[cfg(test)]`-gated item.
///
/// After a `#[cfg(test)]` attribute (including `cfg(all(test, ...))`),
/// the gated item extends through any further attributes and then either
/// to the first `;` outside a group (bodyless items such as `use`, and
/// statements) or to the matching `}` of the first `{`.
fn mark_test_regions(tokens: &[Token], partner: &[usize]) -> Vec<bool> {
    let mut marked = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = cfg_test_attr_end(tokens, partner, i) {
            let end = gated_end(tokens, partner, after_attr);
            marked[i..end].fill(true);
            i = end;
        } else {
            i += 1;
        }
    }
    marked
}

/// When `tokens[i..]` starts a `#[cfg(test)]`-style attribute, returns
/// the index just past its closing `]`.
fn cfg_test_attr_end(tokens: &[Token], partner: &[usize], i: usize) -> Option<usize> {
    if !(tokens.get(i)?.is_punct("#")
        && tokens.get(i + 1)?.is_punct("[")
        && tokens.get(i + 2)?.is_ident("cfg")
        && tokens.get(i + 3)?.is_punct("("))
    {
        return None;
    }
    let close = partner[i + 3];
    if close <= i + 3 || !tokens.get(close + 1)?.is_punct("]") {
        return None;
    }
    let mut saw_test = false;
    let mut j = i + 4;
    while j < close {
        // `#[cfg(not(test))]` gates *non*-test code: skip its argument.
        if tokens[j].is_ident("not") && tokens[j + 1].is_punct("(") {
            j = partner[j + 1].max(j + 1) + 1;
            continue;
        }
        let last = partner[j].max(j);
        saw_test |= tokens[j..=last].iter().any(|t| t.is_ident("test"));
        j = last + 1;
    }
    saw_test.then_some(close + 2)
}

/// Index just past the item gated by an attribute ending at `tokens[i]`:
/// groups (further attributes included) are stepped over whole, up to
/// the first `;` or through the first `{ .. }` block.
fn gated_end(tokens: &[Token], partner: &[usize], mut i: usize) -> usize {
    while i < tokens.len() {
        if tokens[i].is_punct(";") {
            return i + 1;
        }
        if tokens[i].is_punct("{") {
            return if partner[i] > i {
                partner[i] + 1
            } else {
                tokens.len()
            };
        }
        i = partner[i].max(i) + 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn floats_vs_ints_vs_fields() {
        let toks = kinds("x.0 == 0; y == 0.0; z == 1e-9; w == 1.0f64; r = 1..4;");
        let floats: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, s)| s.clone())
            .collect();
        assert_eq!(floats, vec!["0.0", "1e-9", "1.0f64"]);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.contains(&(TokKind::Lifetime, "'a".to_string())));
        assert!(toks.contains(&(TokKind::Char, "'c'".to_string())));
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let toks = kinds("// panic!()\n/* unwrap() */ let s = \"todo!()\";");
        assert!(!toks.iter().any(|(_, s)| s.contains("panic")));
        assert!(!toks.iter().any(|(_, s)| s.contains("unwrap")));
        assert!(toks.iter().any(|(_, s)| s == "let"));
    }

    #[test]
    fn raw_strings_close_on_matching_hashes() {
        let toks = kinds("let s = r#\"inner \" quote\"#; let t = 3;");
        assert!(toks.iter().any(|(_, s)| s == "t"));
    }

    #[test]
    fn directive_parses_with_reason() {
        let lexed = lex("// simlint: allow(panic-policy) — documented invariant\nlet x = 1;");
        assert_eq!(lexed.directives.len(), 1);
        let d = &lexed.directives[0];
        assert!(d.well_formed && d.has_reason);
        assert_eq!(d.rule, "panic-policy");
        assert_eq!(d.line, 1);
    }

    #[test]
    fn directive_without_reason_is_flagged() {
        let lexed = lex("// simlint: allow(float-eq)\nlet x = 1;");
        assert!(lexed.directives[0].well_formed);
        assert!(!lexed.directives[0].has_reason);
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let lexed = lex(
            "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn also_live() {}",
        );
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(lexed.in_test[unwrap_idx]);
        let live_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("also_live"))
            .expect("also_live token");
        assert!(!lexed.in_test[live_idx]);
    }

    #[test]
    fn cfg_test_use_does_not_swallow_following_items() {
        let lexed = lex("#[cfg(test)]\nuse foo::bar;\nfn live() { x.unwrap(); }");
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(!lexed.in_test[unwrap_idx]);
    }

    /// `in_test` of every occurrence of the identifier `name`, in order.
    fn marks_of(src: &str, name: &str) -> Vec<bool> {
        let lexed = lex(src);
        lexed
            .tokens
            .iter()
            .zip(&lexed.in_test)
            .filter(|(t, _)| t.is_ident(name))
            .map(|(_, &m)| m)
            .collect()
    }

    #[test]
    fn cfg_all_test_feature_gates_the_item() {
        let src = "#[cfg(all(test, feature = \"x\"))]\nfn gated() { x.unwrap(); }\n\
                   fn live() { y.unwrap(); }";
        assert_eq!(marks_of(src, "unwrap"), vec![true, false]);
        assert_eq!(marks_of(src, "live"), vec![false]);
    }

    #[test]
    fn attribute_stack_after_cfg_test_stays_in_the_region() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn f() { x.unwrap(); } }\n\
                   fn live() { y.unwrap(); }";
        assert_eq!(marks_of(src, "unwrap"), vec![true, false]);
        assert_eq!(marks_of(src, "t"), vec![true]);
        assert_eq!(marks_of(src, "live"), vec![false]);
    }

    #[test]
    fn cfg_test_fn_inside_impl_is_marked_alone() {
        let src = "impl S {\n    #[cfg(test)]\n    fn helper(&self) { x.unwrap(); }\n\
                   \x20   fn live(&self) { y.unwrap(); }\n}";
        assert_eq!(marks_of(src, "unwrap"), vec![true, false]);
        assert_eq!(marks_of(src, "helper"), vec![true]);
        assert_eq!(marks_of(src, "live"), vec![false]);
        assert_eq!(marks_of(src, "S"), vec![false]);
    }

    #[test]
    fn cfg_test_statement_ends_at_its_semicolon() {
        let src = "fn f() {\n    #[cfg(test)]\n    let a = x.unwrap();\n    let b = y.unwrap();\n}";
        assert_eq!(marks_of(src, "unwrap"), vec![true, false]);
        assert_eq!(marks_of(src, "a"), vec![true]);
        assert_eq!(marks_of(src, "b"), vec![false]);
        assert_eq!(marks_of(src, "f"), vec![false]);
    }

    #[test]
    fn cfg_test_item_steps_over_groups_to_its_body() {
        // The `;` inside `[u8; 4]` does not end the gated item.
        let src = "#[cfg(test)]\nfn f(a: [u8; 4]) { x.unwrap(); }\nfn live() { y.unwrap(); }";
        assert_eq!(marks_of(src, "unwrap"), vec![true, false]);
    }

    #[test]
    fn partner_table_tolerates_unbalanced_input() {
        let lexed = lex("( [ ) ] } {");
        // `)` closes `(` and leaves the mismatched `[` unpaired; the
        // stray `]` and `}` and the unclosed `{` stay unpaired too.
        assert_eq!(lexed.partner, vec![2, 1, 0, 3, 4, 5]);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let lexed = lex("#[cfg(not(test))]\nfn live() { x.unwrap(); }");
        let unwrap_idx = lexed
            .tokens
            .iter()
            .position(|t| t.is_ident("unwrap"))
            .expect("unwrap token");
        assert!(!lexed.in_test[unwrap_idx]);
    }
}
