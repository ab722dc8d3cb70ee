//! A deliberately naive reference parser — the oracle of
//! `differential.rs`.
//!
//! Independent of the library's reader by construction: it walks a
//! `Vec<char>` one character at a time by recursive descent, decodes
//! entity and character references itself, and uses no item of
//! `wsrc_xml`. It implements the dialect `reader.rs` documents (no DTD,
//! one root, unique attributes, the five predefined entities, digit-only
//! character references, ASCII whitespace, a declaration only at
//! offset 0) and answers either `None` — rejected — or the event
//! stream, one line per event in the Table-4 style with attributes
//! appended as ` name="value"`, adjacent character runs merged into one
//! line.

/// Parses `input`; `None` when it is not a well-formed document.
pub fn parse(input: &str) -> Option<Vec<String>> {
    let mut parser = Parser {
        chars: input.chars().collect(),
        pos: 0,
        out: Vec::new(),
        in_text: false,
    };
    parser.document()?;
    Some(parser.out)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    out: Vec<String>,
    /// The last line is a character run that further text extends.
    in_text: bool,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn at(&self, s: &str) -> bool {
        s.chars()
            .enumerate()
            .all(|(i, c)| self.chars.get(self.pos + i) == Some(&c))
    }

    fn eat(&mut self, s: &str) -> bool {
        let found = self.at(s);
        if found {
            self.pos += s.chars().count();
        }
        found
    }

    /// Everything before the next `end`, which is consumed too; `None`
    /// when `end` never comes.
    fn until(&mut self, end: &str) -> Option<String> {
        let mut body = String::new();
        while !self.eat(end) {
            body.push(self.next()?);
        }
        Some(body)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn emit(&mut self, line: String) {
        self.out.push(line);
        self.in_text = false;
    }

    fn text(&mut self, run: &str) {
        if self.in_text {
            self.out.last_mut().expect("a text line").push_str(run);
        } else {
            self.emit(format!("characters: {run}"));
            self.in_text = true;
        }
    }

    fn document(&mut self) -> Option<()> {
        self.emit("start document".into());
        let mut roots = 0;
        while let Some(c) = self.peek() {
            if c != '<' {
                // Only whitespace may surround the root — the same
                // ASCII set `skip_ws` skips inside a tag.
                if !c.is_ascii_whitespace() {
                    return None;
                }
                self.pos += 1;
            } else if self.at("<!--") {
                self.comment()?;
            } else if self.at("<?") {
                self.instruction()?;
            } else if self.at("<!") || self.at("</") {
                // DOCTYPE, CDATA or an end tag outside the root.
                return None;
            } else {
                roots += 1;
                self.element()?;
            }
        }
        if roots != 1 {
            return None;
        }
        self.emit("end document".into());
        Some(())
    }

    fn comment(&mut self) -> Option<()> {
        self.pos += "<!--".len();
        let body = self.until("-->")?;
        if body.contains("--") {
            return None;
        }
        self.emit(format!("comment: {body}"));
        Some(())
    }

    fn instruction(&mut self) -> Option<()> {
        let at_start = self.pos == 0;
        self.pos += "<?".len();
        let body = self.until("?>")?;
        let (target, data) = match body.find(|c: char| c.is_ascii_whitespace()) {
            Some(i) => (&body[..i], body[i..].trim_start()),
            None => (body.as_str(), ""),
        };
        if target.is_empty() {
            return None;
        }
        if target.eq_ignore_ascii_case("xml") {
            // The XML declaration: first thing or nowhere, and no event.
            return at_start.then_some(());
        }
        self.emit(format!("processing instruction: {target} {data}"));
        Some(())
    }

    /// A name token — everything up to whitespace or one of `stops` —
    /// checked to be `local` or `prefix:local`.
    fn name(&mut self, stops: &str) -> Option<String> {
        let mut name = String::new();
        while let Some(c) = self.peek() {
            if matches!(c, ' ' | '\t' | '\n' | '\r') || stops.contains(c) {
                break;
            }
            name.push(c);
            self.pos += 1;
        }
        let parts: Vec<&str> = name.split(':').collect();
        let valid = parts.len() <= 2
            && parts.iter().all(|part| {
                let mut chars = part.chars();
                chars.next().is_some_and(|c| c.is_alphabetic() || c == '_')
                    && chars.all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))
            });
        valid.then_some(name)
    }

    /// One element, from its `<` through its end tag, children included.
    fn element(&mut self) -> Option<()> {
        self.pos += 1;
        let name = self.name(">/")?;
        let mut line = format!("start element: {name}");
        let mut seen = Vec::new();
        loop {
            self.skip_ws();
            match self.peek()? {
                '>' => {
                    self.pos += 1;
                    break;
                }
                '/' => {
                    self.pos += 1;
                    if self.next()? != '>' {
                        return None;
                    }
                    self.emit(line);
                    self.emit(format!("end element: {name}"));
                    return Some(());
                }
                _ => {
                    let attr = self.name("=>/")?;
                    self.skip_ws();
                    if self.next()? != '=' {
                        return None;
                    }
                    self.skip_ws();
                    let quote = self.next()?;
                    if quote != '"' && quote != '\'' {
                        return None;
                    }
                    let mut raw = String::new();
                    loop {
                        match self.next()? {
                            c if c == quote => break,
                            '<' => return None,
                            c => raw.push(c),
                        }
                    }
                    if seen.contains(&attr) {
                        return None;
                    }
                    line.push_str(&format!(" {attr}={:?}", decode(&raw)?));
                    seen.push(attr);
                }
            }
        }
        self.emit(line);
        loop {
            if self.eat("</") {
                let end = self.name(">")?;
                self.skip_ws();
                if self.next()? != '>' || end != name {
                    return None;
                }
                self.emit(format!("end element: {name}"));
                return Some(());
            } else if self.at("<!--") {
                self.comment()?;
            } else if self.eat("<![CDATA[") {
                let body = self.until("]]>")?;
                self.text(&body);
            } else if self.at("<?") {
                self.instruction()?;
            } else if self.at("<!") {
                return None;
            } else if self.at("<") {
                self.element()?;
            } else {
                // End of input inside an element rejects, here as above.
                let mut raw = String::new();
                while self.peek()? != '<' {
                    raw.push(self.next()?);
                }
                let run = decode(&raw)?;
                self.text(&run);
            }
        }
    }
}

/// Expands `&amp;` `&lt;` `&gt;` `&quot;` `&apos;` and `&#N;` / `&#xH;`;
/// `None` for anything else after an `&`.
fn decode(raw: &str) -> Option<String> {
    let mut out = String::new();
    let mut rest = raw;
    while let Some((before, after)) = rest.split_once('&') {
        out.push_str(before);
        let (entity, tail) = after.split_once(';')?;
        out.push(match entity {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                let digits = entity.strip_prefix('#')?;
                let (digits, radix) = match digits.strip_prefix(['x', 'X']) {
                    Some(hex) => (hex, 16),
                    None => (digits, 10),
                };
                // Digits only: `from_str_radix` alone would take a sign.
                if !digits.chars().all(|c| c.is_digit(radix)) {
                    return None;
                }
                char::from_u32(u32::from_str_radix(digits, radix).ok()?)?
            }
        });
        rest = tail;
    }
    out.push_str(rest);
    Some(out)
}
