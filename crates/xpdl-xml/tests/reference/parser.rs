//! Recursive-descent XML parser producing a [`Document`].

use super::escape::unescape;
use super::lexer::{is_name_char, Cursor};
use xpdl_xml::dom::{Attribute, Document, Element, Node, NodeKind};
use xpdl_xml::error::{XmlError, XmlErrorKind, XmlResult};
use xpdl_xml::pos::Span;
use xpdl_xml::ParseOptions;

/// Parse a document in strict mode.
pub fn parse(input: &str) -> XmlResult<Document> {
    parse_with(input, ParseOptions::default())
}

/// Parse a document with explicit options.
pub fn parse_with(input: &str, opts: ParseOptions) -> XmlResult<Document> {
    let mut p = Parser { cur: Cursor::new(input), opts, depth: 0 };
    p.document()
}

/// The name given to the synthetic attribute created for value-only elements
/// (`<compute_capability="3.0"/>`) in lenient mode.
pub const LENIENT_VALUE_ATTR: &str = "value";

struct Parser<'a> {
    cur: Cursor<'a>,
    opts: ParseOptions,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn document(&mut self) -> XmlResult<Document> {
        let mut prolog = Vec::new();
        // Byte-order mark.
        self.cur.eat("\u{FEFF}");
        loop {
            self.cur.skip_ws();
            if self.cur.starts_with("<?") {
                let node = self.pi()?;
                prolog.push(node);
            } else if self.cur.starts_with("<!--") {
                let node = self.comment()?;
                if self.opts.keep_comments {
                    prolog.push(node);
                }
            } else if self.cur.starts_with("<!DOCTYPE") {
                // XPDL does not use DTDs; skip the declaration (no internal
                // subset support needed).
                self.cur.take_until(">", "'>' ending DOCTYPE")?;
                self.cur.expect(">")?;
            } else {
                break;
            }
        }
        if !self.cur.starts_with("<") {
            return Err(XmlError::new(XmlErrorKind::NoRootElement, self.cur.pos()));
        }
        let root = self.element()?;
        let mut epilog = Vec::new();
        loop {
            self.cur.skip_ws();
            if self.cur.is_eof() {
                break;
            }
            if self.cur.starts_with("<!--") {
                let node = self.comment()?;
                if self.opts.keep_comments {
                    epilog.push(node);
                }
            } else if self.cur.starts_with("<?") {
                epilog.push(self.pi()?);
            } else {
                return Err(XmlError::new(XmlErrorKind::TrailingContent, self.cur.pos()));
            }
        }
        Ok(Document { prolog, root, epilog })
    }

    fn pi(&mut self) -> XmlResult<Node> {
        let start = self.cur.pos();
        self.cur.expect("<?")?;
        let (target, _) = self
            .cur
            .scan_name()
            .map_err(|e| XmlError::new(XmlErrorKind::MalformedPi, e.pos))?;
        let target = target.to_string();
        let data = self.cur.take_until("?>", "'?>' ending processing instruction")?.trim().to_string();
        self.cur.expect("?>")?;
        Ok(Node { kind: NodeKind::Pi { target, data }, span: Span::new(start, self.cur.pos()) })
    }

    fn comment(&mut self) -> XmlResult<Node> {
        let start = self.cur.pos();
        self.cur.expect("<!--")?;
        let text = self.cur.take_until("-->", "'-->' ending comment")?;
        if !self.opts.lenient && text.contains("--") {
            return Err(XmlError::new(XmlErrorKind::MalformedComment, start));
        }
        let text = text.to_string();
        self.cur.expect("-->")?;
        Ok(Node { kind: NodeKind::Comment(text), span: Span::new(start, self.cur.pos()) })
    }

    fn cdata(&mut self) -> XmlResult<Node> {
        let start = self.cur.pos();
        self.cur.expect("<![CDATA[")?;
        let text = self.cur.take_until("]]>", "']]>' ending CDATA section")?.to_string();
        self.cur.expect("]]>")?;
        Ok(Node { kind: NodeKind::CData(text), span: Span::new(start, self.cur.pos()) })
    }

    fn element(&mut self) -> XmlResult<Element> {
        self.depth += 1;
        if self.depth > self.opts.max_depth {
            let err = XmlError::new(
                XmlErrorKind::StrictViolation { what: "nesting deeper than max_depth" },
                self.cur.pos(),
            );
            self.depth -= 1;
            return Err(err);
        }
        let result = self.element_inner();
        self.depth -= 1;
        result
    }

    fn element_inner(&mut self) -> XmlResult<Element> {
        let start = self.cur.pos();
        self.cur.expect("<")?;
        let (name, _) = self.cur.scan_name()?;
        let mut elem = Element::new(name);
        self.attributes(&mut elem)?;
        self.cur.skip_ws();
        if self.cur.eat("/>") {
            elem.span = Span::new(start, self.cur.pos());
            return Ok(elem);
        }
        self.cur.expect(">")?;
        self.content(&mut elem)?;
        // content() consumed up to `</`.
        self.cur.expect("</")?;
        let close_pos = self.cur.pos();
        let (close, _) = self.cur.scan_name()?;
        if close != elem.name {
            return Err(XmlError::new(
                XmlErrorKind::MismatchedCloseTag { open: elem.name.clone(), close: close.to_string() },
                close_pos,
            ));
        }
        self.cur.skip_ws();
        self.cur.expect(">")?;
        elem.span = Span::new(start, self.cur.pos());
        Ok(elem)
    }

    fn attributes(&mut self, elem: &mut Element) -> XmlResult<()> {
        // Set after a `...` elision marker so a glued attribute (`...unit=`)
        // is not rejected for missing whitespace.
        let mut after_elision = false;
        loop {
            let ws = self.cur.skip_ws() + usize::from(std::mem::take(&mut after_elision));
            match self.cur.peek() {
                Some('/') | Some('>') | None => return Ok(()),
                Some('=') if self.opts.lenient && elem.attrs.is_empty() && elem.children.is_empty() => {
                    // Paper-listing dialect: `<compute_capability="3.0"/>`.
                    let a_start = self.cur.pos();
                    self.cur.expect("=")?;
                    let value = self.attr_value()?;
                    elem.attrs.push(Attribute {
                        name: LENIENT_VALUE_ATTR.to_string(),
                        value,
                        span: Span::new(a_start, self.cur.pos()),
                    });
                    continue;
                }
                Some('.') if self.opts.lenient => {
                    // Elision marker `...` (possibly glued to a following
                    // attribute name, as in `...unit="MHz"`): skip the dots.
                    let dots = self.cur.take_while(|c| c == '.');
                    debug_assert!(!dots.is_empty());
                    after_elision = true;
                    continue;
                }
                Some(c) => {
                    if ws == 0 && !elem.attrs.is_empty() {
                        return Err(XmlError::new(
                            XmlErrorKind::UnexpectedChar { found: c, expected: "whitespace before attribute" },
                            self.cur.pos(),
                        ));
                    }
                }
            }
            let a_start = self.cur.pos();
            let (name, _) = self.cur.scan_name()?;
            let name = name.to_string();
            self.cur.skip_ws();
            self.cur.expect("=")?;
            self.cur.skip_ws();
            let value = self.attr_value()?;
            if elem.attr(&name).is_some() {
                return Err(XmlError::new(XmlErrorKind::DuplicateAttribute { name }, a_start));
            }
            elem.attrs.push(Attribute { name, value, span: Span::new(a_start, self.cur.pos()) });
        }
    }

    fn attr_value(&mut self) -> XmlResult<String> {
        let vstart = self.cur.pos();
        match self.cur.peek() {
            Some(q @ ('"' | '\'')) => {
                self.cur.bump();
                let quote = if q == '"' { "\"" } else { "'" };
                let raw = self.cur.take_until(quote, "closing attribute quote")?;
                let value = unescape(raw, vstart)?.into_owned();
                self.cur.expect(if q == '"' { "\"" } else { "'" })?;
                Ok(value)
            }
            Some(_) if self.opts.lenient => {
                // Unquoted value (`quantity=2`): take name-ish characters.
                let raw = self.cur.take_while(|c| is_name_char(c) || c == '?' || c == '/');
                if raw.is_empty() {
                    Err(XmlError::new(
                        XmlErrorKind::UnexpectedChar {
                            found: self.cur.peek().unwrap_or('\0'),
                            expected: "attribute value",
                        },
                        vstart,
                    ))
                } else {
                    Ok(raw.to_string())
                }
            }
            Some(found) => Err(XmlError::new(
                XmlErrorKind::StrictViolation { what: "unquoted attribute value" },
                vstart,
            ))
            .map_err(|e| {
                // Distinguish a genuinely malformed token from an unquoted value.
                if found.is_alphanumeric() || found == '?' {
                    e
                } else {
                    XmlError::new(
                        XmlErrorKind::UnexpectedChar { found, expected: "quoted attribute value" },
                        vstart,
                    )
                }
            }),
            None => Err(XmlError::new(
                XmlErrorKind::UnexpectedEof { expected: "attribute value" },
                vstart,
            )),
        }
    }

    /// Parse element content up to (not consuming) the closing `</`.
    fn content(&mut self, elem: &mut Element) -> XmlResult<()> {
        loop {
            if self.cur.is_eof() {
                return Err(XmlError::new(
                    XmlErrorKind::UnclosedElement { name: elem.name.clone() },
                    self.cur.pos(),
                ));
            }
            if self.cur.starts_with("</") {
                return Ok(());
            }
            if self.cur.starts_with("<!--") {
                let node = self.comment()?;
                if self.opts.keep_comments {
                    elem.children.push(node);
                }
            } else if self.cur.starts_with("<![CDATA[") {
                elem.children.push(self.cdata()?);
            } else if self.cur.starts_with("<?") {
                elem.children.push(self.pi()?);
            } else if self.cur.starts_with("<") {
                let child = self.element()?;
                elem.children.push(Node::element(child));
            } else {
                let t_start = self.cur.pos();
                let raw = self.cur.take_while(|c| c != '<');
                let mut text = unescape(raw, t_start)?.into_owned();
                if self.opts.trim_whitespace_nodes {
                    text = text.trim().to_string();
                }
                if !text.is_empty() {
                    elem.children.push(Node {
                        kind: NodeKind::Text(text),
                        span: Span::new(t_start, self.cur.pos()),
                    });
                }
            }
        }
    }
}
