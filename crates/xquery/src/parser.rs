//! Recursive-descent parser for MinXQuery.
//!
//! The syntax is modal like XQuery itself: *expression mode* (clauses, paths)
//! and *element-content mode* (raw character data, nested constructors, and
//! `{…}` enclosed expressions). Supported beyond Figure 2, matching the
//! paper's implementation notes (§5): the `//` abbreviation, a bare leading
//! `/` meaning `$input`, abbreviated child steps, `(: … :)` comments, and
//! `{{` / `}}` escapes in element content.

use crate::ast::{Axis, NodeTest, Path, Pred, Query, RelPath, Step};

/// How deep a query may nest: parentheses, element constructors, `for` and
/// `let` bodies, predicates, and the steps of a path each count one level.
/// Translation, optimization, printing and dropping all recurse along this
/// nesting, so the bound is what keeps every later pass on its stack.
pub const MAX_NESTING: usize = 256;

/// Parse error with source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XqSyntaxError {
    pub line: usize,
    pub col: usize,
    /// Byte offset into the source.
    pub offset: usize,
    pub msg: String,
    /// Whether the query nests deeper than [`MAX_NESTING`].
    pub too_deep: bool,
}

impl std::fmt::Display for XqSyntaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "XQuery syntax error at {}:{}: {}",
            self.line, self.col, self.msg
        )
    }
}

impl std::error::Error for XqSyntaxError {}

/// Parse a complete MinXQuery program.
pub fn parse_query(src: &str) -> Result<Query, XqSyntaxError> {
    let mut p = P {
        src: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.ws();
    let q = p.query()?;
    p.ws();
    if p.pos != p.src.len() {
        return p.err("trailing input after query");
    }
    Ok(q)
}

struct P<'a> {
    src: &'a [u8],
    pos: usize,
    /// Nesting levels open at `pos`.
    depth: usize,
}

impl<'a> P<'a> {
    // ---- low-level ----------------------------------------------------

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, XqSyntaxError> {
        let (mut line, mut col) = (1, 1);
        for &b in &self.src[..self.pos.min(self.src.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        Err(XqSyntaxError {
            line,
            col,
            offset: self.pos,
            msg: msg.into(),
            too_deep: false,
        })
    }

    /// Parse `f` one nesting level deeper; an error past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: fn(&mut Self) -> Result<T, XqSyntaxError>,
    ) -> Result<T, XqSyntaxError> {
        if self.depth == MAX_NESTING {
            let msg = format!("nested deeper than {MAX_NESTING} levels");
            let too_deep = |e| XqSyntaxError {
                too_deep: true,
                ..e
            };
            return self.err(msg).map_err(too_deep);
        }
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XqSyntaxError> {
        if self.eat(s) {
            Ok(())
        } else {
            self.err(format!("expected {s:?}"))
        }
    }

    /// Skip whitespace and `(: … :)` comments (nesting supported).
    fn ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => self.pos += 1,
                Some(b'(') if self.peek2() == Some(b':') => {
                    self.pos += 2;
                    let mut depth = 1;
                    while depth > 0 && self.pos < self.src.len() {
                        if self.starts_with("(:") {
                            depth += 1;
                            self.pos += 2;
                        } else if self.starts_with(":)") {
                            depth -= 1;
                            self.pos += 2;
                        } else {
                            self.pos += 1;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn name(&mut self) -> Result<String, XqSyntaxError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.pos += 1,
            _ => return self.err("expected a name"),
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    /// Peek the next name without consuming (after whitespace).
    fn peek_word(&mut self) -> Option<String> {
        self.ws();
        let save = self.pos;
        let w = self.name().ok();
        self.pos = save;
        w
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if self.peek_word().as_deref() == Some(kw) {
            self.ws();
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn string_lit(&mut self) -> Result<String, XqSyntaxError> {
        self.ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected a string literal"),
        };
        self.pos += 1;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string literal"),
                Some(c) if c == quote => {
                    self.pos += 1;
                    // XQuery escapes quotes by doubling.
                    if self.peek() == Some(quote) {
                        s.push(quote as char);
                        self.pos += 1;
                    } else {
                        return Ok(s);
                    }
                }
                Some(b'\\') if self.peek2() == Some(b'"') || self.peek2() == Some(b'\\') => {
                    // Also tolerate backslash escapes (used by our printer).
                    s.push(self.peek2().unwrap() as char);
                    self.pos += 2;
                }
                Some(c) => {
                    s.push(c as char);
                    self.pos += 1;
                }
            }
        }
    }

    // ---- grammar -------------------------------------------------------

    fn query(&mut self) -> Result<Query, XqSyntaxError> {
        self.ws();
        if self.peek() == Some(b'<')
            && self
                .peek2()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
        {
            self.nested(Self::element)
        } else {
            self.nested(Self::clause)
        }
    }

    fn element(&mut self) -> Result<Query, XqSyntaxError> {
        self.expect("<")?;
        let name = self.name()?;
        self.ws();
        if self.eat("/>") {
            return Ok(Query::Element {
                name,
                content: vec![],
            });
        }
        self.expect(">")?;
        let mut content = Vec::new();
        let mut raw = String::new();
        loop {
            match self.peek() {
                None => return self.err(format!("unterminated element constructor <{name}>")),
                Some(b'<') => {
                    flush_raw(&mut raw, &mut content);
                    if self.starts_with("</") {
                        self.pos += 2;
                        let close = self.name()?;
                        if close != name {
                            return self.err(format!("mismatched </{close}>, expected </{name}>"));
                        }
                        self.ws();
                        self.expect(">")?;
                        return Ok(Query::Element { name, content });
                    }
                    content.push(self.nested(Self::element)?);
                }
                Some(b'{') if self.peek2() == Some(b'{') => {
                    self.pos += 2;
                    raw.push('{');
                }
                Some(b'}') if self.peek2() == Some(b'}') => {
                    self.pos += 2;
                    raw.push('}');
                }
                Some(b'{') => {
                    flush_raw(&mut raw, &mut content);
                    self.pos += 1;
                    let q = self.query()?;
                    self.ws();
                    self.expect("}")?;
                    content.push(q);
                }
                Some(b'}') => return self.err("unexpected '}' in element content"),
                Some(c) => {
                    raw.push(c as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn clause(&mut self) -> Result<Query, XqSyntaxError> {
        self.ws();
        if self.keyword("for") {
            self.ws();
            self.expect("$")?;
            let var = self.name()?;
            if !self.keyword("in") {
                return self.err("expected 'in' in for clause");
            }
            let path = self.ordpath()?;
            if !self.keyword("return") {
                return self.err("expected 'return' in for clause");
            }
            let body = self.query()?;
            return Ok(Query::For {
                var,
                path,
                body: Box::new(body),
            });
        }
        if self.keyword("let") {
            self.ws();
            self.expect("$")?;
            let var = self.name()?;
            self.ws();
            self.expect(":=")?;
            let value = self.query()?;
            if !self.keyword("return") {
                return self.err("expected 'return' in let clause");
            }
            let body = self.query()?;
            return Ok(Query::Let {
                var,
                value: Box::new(value),
                body: Box::new(body),
            });
        }
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let mut qs = vec![self.query()?];
            self.ws();
            while self.eat(",") {
                qs.push(self.query()?);
                self.ws();
            }
            self.expect(")")?;
            return Ok(if qs.len() == 1 {
                qs.pop().unwrap()
            } else {
                Query::Seq(qs)
            });
        }
        Ok(Query::Path(self.ordpath()?))
    }

    fn ordpath(&mut self) -> Result<Path, XqSyntaxError> {
        self.ws();
        let start = if self.eat("$") {
            self.name()?
        } else if self.peek() == Some(b'/') {
            // `/site/…` abbreviates `$input/site/…`.
            "input".to_string()
        } else {
            return self.err("expected '$var' or '/' to start a path")?;
        };
        let steps = self.steps()?;
        Ok(Path { start, steps })
    }

    /// The `/`-steps of a path: each one nesting level deeper than the last.
    fn steps(&mut self) -> Result<Vec<Step>, XqSyntaxError> {
        let (depth, mut steps) = (self.depth, Vec::new());
        while self.peek() == Some(b'/') {
            steps.push(self.nested(Self::step)?);
            self.depth += 1;
        }
        self.depth = depth;
        Ok(steps)
    }

    fn step(&mut self) -> Result<Step, XqSyntaxError> {
        self.expect("/")?;
        let axis = if self.peek() == Some(b'/') {
            // `//x` — handled as descendant (as in the paper's prototype).
            self.pos += 1;
            Some(Axis::Descendant)
        } else {
            None
        };
        self.ws();
        // Explicit axis?
        let save = self.pos;
        let axis = match axis {
            Some(a) => a,
            None => {
                let mut a = Axis::Child;
                if let Ok(word) = self.name() {
                    self.ws();
                    if self.eat("::") {
                        a = match word.as_str() {
                            "child" => Axis::Child,
                            "descendant" => Axis::Descendant,
                            "following-sibling" => Axis::FollowingSibling,
                            other => {
                                return self.err(format!(
                                    "unsupported axis '{other}' (MinXQuery allows child, \
                                     descendant, following-sibling)"
                                ))
                            }
                        };
                    } else {
                        self.pos = save;
                    }
                } else {
                    self.pos = save;
                }
                a
            }
        };
        self.ws();
        let test = self.node_test()?;
        let mut preds = Vec::new();
        loop {
            self.ws();
            if self.eat("[") {
                preds.push(self.nested(Self::predicate)?);
                self.ws();
                self.expect("]")?;
            } else {
                break;
            }
        }
        Ok(Step { axis, test, preds })
    }

    fn node_test(&mut self) -> Result<NodeTest, XqSyntaxError> {
        self.ws();
        if self.eat("*") {
            return Ok(NodeTest::AnyElem);
        }
        let name = self.name()?;
        self.ws();
        if name == "text" && self.eat("()") {
            return Ok(NodeTest::Text);
        }
        if name == "node" && self.eat("()") {
            return Ok(NodeTest::AnyNode);
        }
        Ok(NodeTest::Name(name))
    }

    fn predicate(&mut self) -> Result<Pred, XqSyntaxError> {
        self.ws();
        if self.peek_word().as_deref() == Some("empty") {
            let save = self.pos;
            self.ws();
            self.pos += "empty".len();
            self.ws();
            if self.eat("(") {
                let rel = self.rel_path()?;
                self.ws();
                self.expect(")")?;
                return Ok(Pred::Empty(rel));
            }
            self.pos = save; // `empty` was a step name after all
        }
        let rel = self.rel_path()?;
        self.ws();
        if self.eat("!=") {
            let s = self.string_lit()?;
            return Ok(Pred::Neq(rel, s));
        }
        if self.eat("=") {
            let s = self.string_lit()?;
            return Ok(Pred::Eq(rel, s));
        }
        Ok(Pred::Exists(rel))
    }

    fn rel_path(&mut self) -> Result<RelPath, XqSyntaxError> {
        self.ws();
        // Leading `.` is optional: `[text()="x"]` == `[./text()="x"]`.
        let _ = self.eat(".");
        let mut steps = Vec::new();
        self.ws();
        if self.peek() == Some(b'/') {
            steps = self.steps()?;
        } else {
            // A bare step (no slash): `[name]`, `[text()="x"]`.
            if self.peek() != Some(b']') && self.peek() != Some(b'=') && self.peek() != Some(b'!') {
                let test = self.node_test()?;
                let mut preds = Vec::new();
                loop {
                    self.ws();
                    if self.eat("[") {
                        preds.push(self.nested(Self::predicate)?);
                        self.ws();
                        self.expect("]")?;
                    } else {
                        break;
                    }
                }
                steps.push(Step {
                    axis: Axis::Child,
                    test,
                    preds,
                });
            }
        }
        if steps.is_empty() {
            return self.err("empty predicate path");
        }
        Ok(RelPath { steps })
    }
}

fn flush_raw(raw: &mut String, content: &mut Vec<Query>) {
    let t = raw.trim();
    if !t.is_empty() {
        content.push(Query::Text(t.to_string()));
    }
    raw.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> Query {
        let q = parse_query(src).unwrap();
        let printed = q.to_string();
        let q2 =
            parse_query(&printed).unwrap_or_else(|e| panic!("reparse of {printed:?} failed: {e}"));
        assert_eq!(q, q2, "printer/parser mismatch for {src}");
        q
    }

    #[test]
    fn parses_paper_section2_example() {
        let q = roundtrip(
            "for $v1 in $input/descendant::a return
             for $v2 in $v1/descendant::b return
             let $v3 := $v2/descendant::c return
             let $v4 := $v2/descendant::d return
             ($v1,$v2,$v3,$v4)",
        );
        match &q {
            Query::For { var, path, .. } => {
                assert_eq!(var, "v1");
                assert_eq!(path.steps[0].axis, Axis::Descendant);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_pperson() {
        let q = roundtrip(
            r#"<out>{ for $b in $input/person[./p_id/text() = "person0"]
                 return let $r := $b/name/text() return $r }</out>"#,
        );
        let Query::Element { name, content } = &q else {
            panic!()
        };
        assert_eq!(name, "out");
        let Query::For { path, .. } = &content[0] else {
            panic!()
        };
        assert_eq!(path.steps.len(), 1);
        assert_eq!(path.steps[0].preds.len(), 1);
        match &path.steps[0].preds[0] {
            Pred::Eq(rel, s) => {
                assert_eq!(s, "person0");
                assert_eq!(rel.steps.len(), 2);
                assert_eq!(rel.steps[1].test, NodeTest::Text);
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn abbreviations() {
        // `//` as descendant; bare `/` as $input; abbreviated child steps.
        let q = parse_query("<fourstar>{$input//*//*//*//*}</fourstar>").unwrap();
        let Query::Element { content, .. } = &q else {
            panic!()
        };
        let Query::Path(p) = &content[0] else {
            panic!()
        };
        assert_eq!(p.steps.len(), 4);
        assert!(p
            .steps
            .iter()
            .all(|s| s.axis == Axis::Descendant && s.test == NodeTest::AnyElem));

        let q2 = parse_query("for $x in /site/regions return $x").unwrap();
        let Query::For { path, .. } = &q2 else {
            panic!()
        };
        assert_eq!(path.start, "input");
        assert_eq!(path.steps[0].test, NodeTest::Name("site".into()));
    }

    #[test]
    fn parses_query04_style_nested_predicate() {
        let q = roundtrip(
            r#"for $b in $input/site/open_auctions/open_auction
                 [./bidder[./personref/personref_person/text()="personXX"]
                  /following-sibling::bidder/personref/personref_person/text()="personYY"]
               return <history>{$b/reserve/text()}</history>"#,
        );
        let Query::For { path, .. } = &q else {
            panic!()
        };
        let pred = &path.steps[2].preds[0];
        match pred {
            Pred::Eq(rel, s) => {
                assert_eq!(s, "personYY");
                assert_eq!(rel.steps[0].test, NodeTest::Name("bidder".into()));
                assert_eq!(rel.steps[0].preds.len(), 1); // the nested predicate
                assert_eq!(rel.steps[1].axis, Axis::FollowingSibling);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_empty_predicate() {
        let q = roundtrip(
            r#"for $p in $input/site/people/person[empty(./homepage/text())]
               return <person><name>{$p/name/text()}</name></person>"#,
        );
        let Query::For { path, .. } = &q else {
            panic!()
        };
        assert!(matches!(&path.steps[2].preds[0], Pred::Empty(_)));
    }

    #[test]
    fn sequences_and_lets() {
        let q = roundtrip("let $a := $input/x return ($a, $a, <e/>)");
        let Query::Let { body, .. } = &q else {
            panic!()
        };
        let Query::Seq(items) = body.as_ref() else {
            panic!()
        };
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn raw_text_and_brace_escapes() {
        let q = parse_query("<a>hello {{world}} {$input/x}</a>").unwrap();
        let Query::Element { content, .. } = &q else {
            panic!()
        };
        assert_eq!(content[0], Query::Text("hello {world}".into()));
        assert!(matches!(content[1], Query::Path(_)));
    }

    #[test]
    fn comments_are_skipped() {
        let q = parse_query("(: pick all a's :) for $x in $input/a return $x").unwrap();
        assert!(matches!(q, Query::For { .. }));
    }

    #[test]
    fn error_positions() {
        let e = parse_query("for $x in\n  $input/site[ return $x").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse_query("<a>{$x}</b>").is_err());
        assert!(parse_query("for $x return $x").is_err());
        assert!(parse_query("$input/parent::a").is_err()); // unsupported axis
    }

    #[test]
    fn neq_and_quotes() {
        let q = roundtrip(r#"$input/a[./b/text()!="x"]"#);
        let Query::Path(p) = &q else { panic!() };
        assert!(matches!(&p.steps[0].preds[0], Pred::Neq(_, s) if s == "x"));
        // Single-quoted strings and doubled quotes.
        let q2 = parse_query(r#"$input/a[./b/text()='it''s']"#).unwrap();
        let Query::Path(p2) = &q2 else { panic!() };
        assert!(matches!(&p2.steps[0].preds[0], Pred::Eq(_, s) if s == "it's"));
    }

    #[test]
    fn self_closing_constructor() {
        let q = parse_query("<empty/>").unwrap();
        assert_eq!(
            q,
            Query::Element {
                name: "empty".into(),
                content: vec![]
            }
        );
    }
}
