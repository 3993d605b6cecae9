//! A small SQL lexer that performs the paper's format normalization:
//! consistent spacing, upper-cased keywords, lower-cased identifiers, and
//! uniform bracket placement all fall out of re-rendering the token
//! stream.

use std::fmt;

/// SQL keywords recognized by the lexer. Anything alphabetic that is not
/// in this list is treated as an identifier.
pub(crate) const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "ON", "GROUP", "BY",
    "ORDER", "HAVING", "LIMIT", "OFFSET", "AS", "IN", "IS", "NULL", "LIKE", "BETWEEN", "UNION",
    "ALL", "DISTINCT", "ASC", "DESC", "CASE", "WHEN", "THEN", "ELSE", "END", "EXISTS", "COUNT",
    "SUM", "AVG", "MIN", "MAX", "CREATE", "TABLE", "INDEX", "DROP", "PRIMARY", "KEY", "BEGIN",
    "COMMIT", "ROLLBACK", "TRUE", "FALSE",
];

/// Longest keyword in [`KEYWORDS`]: a keyword's upper-cased ASCII bytes
/// pack into one `u64`.
const MAX_KEYWORD_LEN: usize = 8;

/// Big-endian pack of up to [`MAX_KEYWORD_LEN`] non-zero bytes; words of
/// different lengths can never collide.
const fn pack(word: &[u8]) -> u64 {
    assert!(word.len() <= MAX_KEYWORD_LEN, "keyword too long to pack");
    let mut packed = 0u64;
    let mut i = 0;
    while i < word.len() {
        packed = packed << 8 | word[i] as u64;
        i += 1;
    }
    packed
}

/// [`KEYWORDS`] packed and sorted at compile time, so the lexer and the
/// fingerprint scanner share one binary search and one source list.
const PACKED_KEYWORDS: [u64; KEYWORDS.len()] = {
    let mut table = [0u64; KEYWORDS.len()];
    let mut i = 0;
    while i < KEYWORDS.len() {
        // Insertion sort: const-evaluable, and the list is tiny.
        let packed = pack(KEYWORDS[i].as_bytes());
        let mut j = i;
        while j > 0 && table[j - 1] > packed {
            table[j] = table[j - 1];
            j -= 1;
        }
        table[j] = packed;
        i += 1;
    }
    table
};

/// True when `word` (as lexed, any letter case) is a SQL keyword.
/// Allocation-free: keywords are pure ASCII letters, so anything longer
/// than the longest keyword or holding any other character is an ident.
pub(crate) fn is_keyword(word: &[char]) -> bool {
    if word.len() > MAX_KEYWORD_LEN {
        return false;
    }
    let mut packed = 0u64;
    for &c in word {
        if !c.is_ascii_alphabetic() {
            return false;
        }
        packed = packed << 8 | u64::from(c.to_ascii_uppercase() as u8);
    }
    PACKED_KEYWORDS.binary_search(&packed).is_ok()
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Upper-cased SQL keyword.
    Keyword(String),
    /// Lower-cased identifier (table, column, alias; may be dotted later).
    Ident(String),
    /// Numeric literal, kept verbatim.
    Number(String),
    /// String literal *without* the surrounding quotes.
    Str(String),
    /// Single-character operator or punctuation: `( ) , . ; * = < > + - /`.
    Symbol(char),
    /// Two-character operator: `<=`, `>=`, `<>`, `!=`, `||`.
    Op2([char; 2]),
    /// The literal placeholder produced by templatization.
    Placeholder,
}

impl Token {
    /// True for literal tokens that templatization replaces.
    pub fn is_literal(&self) -> bool {
        matches!(self, Token::Number(_) | Token::Str(_))
    }

    /// True if this token is the given keyword (case already normalized).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Keyword(k) if k == kw)
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Ident(i) => write!(f, "{i}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Symbol(c) => write!(f, "{c}"),
            Token::Op2([a, b]) => write!(f, "{a}{b}"),
            Token::Placeholder => write!(f, "?"),
        }
    }
}

std::thread_local! {
    /// Per-thread character scratch shared by [`tokenize`] and the
    /// fingerprint scanner, so the hot ingest path stops allocating a
    /// fresh `Vec<char>` for every statement it sees.
    static CHAR_SCRATCH: std::cell::RefCell<Vec<char>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` over `sql` decoded into the per-thread char scratch buffer.
/// Falls back to a one-off allocation if the scratch is already borrowed
/// (re-entrant use), so correctness never depends on the optimization.
pub(crate) fn with_chars<R>(sql: &str, f: impl FnOnce(&[char]) -> R) -> R {
    CHAR_SCRATCH.with(|s| match s.try_borrow_mut() {
        Ok(mut buf) => {
            buf.clear();
            buf.extend(sql.chars());
            f(&buf)
        }
        Err(_) => {
            let buf: Vec<char> = sql.chars().collect();
            f(&buf)
        }
    })
}

/// Lex a SQL string into tokens, skipping whitespace and both comment
/// styles (`-- …` and `/* … */`). Unterminated strings are closed at end
/// of input rather than erroring — logs get truncated in the wild.
pub fn tokenize(sql: &str) -> Vec<Token> {
    with_chars(sql, tokenize_chars)
}

/// The lexer proper, over an already-decoded character slice.
fn tokenize_chars(chars: &[char]) -> Vec<Token> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '-' && chars.get(i + 1) == Some(&'-') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            i += 2;
            while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                i += 1;
            }
            i = (i + 2).min(chars.len());
            continue;
        }
        // String literal (single quotes, '' escape).
        if c == '\'' {
            let mut s = String::new();
            i += 1;
            while i < chars.len() {
                if chars[i] == '\'' {
                    if chars.get(i + 1) == Some(&'\'') {
                        s.push('\'');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                s.push(chars[i]);
                i += 1;
            }
            out.push(Token::Str(s));
            continue;
        }
        // Number: digits with optional decimal/exponent part.
        if c.is_ascii_digit()
            || (c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
        {
            let start = i;
            while i < chars.len()
                && (chars[i].is_ascii_digit()
                    || chars[i] == '.'
                    || chars[i] == 'e'
                    || chars[i] == 'E'
                    || ((chars[i] == '+' || chars[i] == '-')
                        && matches!(chars.get(i.wrapping_sub(1)), Some('e') | Some('E'))))
            {
                i += 1;
            }
            out.push(Token::Number(chars[start..i].iter().collect()));
            continue;
        }
        // Identifier or keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word = &chars[start..i];
            if is_keyword(word) {
                out.push(Token::Keyword(word.iter().map(char::to_ascii_uppercase).collect()));
            } else {
                out.push(Token::Ident(word.iter().map(char::to_ascii_lowercase).collect()));
            }
            continue;
        }
        // Placeholder already present in the input (prepared statements).
        if c == '?' || c == '$' || c == '&' || c == '#' {
            out.push(Token::Placeholder);
            i += 1;
            continue;
        }
        // Two-character operators.
        if let Some(&n) = chars.get(i + 1) {
            let pair = [c, n];
            if matches!(pair, ['<', '='] | ['>', '='] | ['<', '>'] | ['!', '='] | ['|', '|']) {
                out.push(Token::Op2(pair));
                i += 2;
                continue;
            }
        }
        out.push(Token::Symbol(c));
        i += 1;
    }
    out
}

/// Render tokens back to a normalized single-line SQL string with
/// canonical spacing (one space between tokens, none before `,`/`)`/`;`
/// or after `(`/`.`, none around `.`).
pub fn render(tokens: &[Token]) -> String {
    let mut out = String::new();
    for (idx, t) in tokens.iter().enumerate() {
        let text = t.to_string();
        let no_space_before = matches!(t, Token::Symbol(',') | Token::Symbol(')') | Token::Symbol(';') | Token::Symbol('.'));
        let prev_no_space_after = idx > 0
            && matches!(tokens[idx - 1], Token::Symbol('(') | Token::Symbol('.'));
        if !out.is_empty() && !no_space_before && !prev_no_space_after {
            out.push(' ');
        }
        out.push_str(&text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_uppercased_and_idents_lowercased() {
        let toks = tokenize("select NAME from Stu");
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Ident("name".into()),
                Token::Keyword("FROM".into()),
                Token::Ident("stu".into()),
            ]
        );
    }

    #[test]
    fn is_keyword_recognises_exactly_the_keyword_list() {
        let chars = |s: &str| s.chars().collect::<Vec<char>>();
        for kw in KEYWORDS {
            let mixed: String = kw
                .chars()
                .enumerate()
                .map(|(i, c)| if i % 2 == 0 { c.to_ascii_lowercase() } else { c })
                .collect();
            for form in [kw.to_string(), kw.to_ascii_lowercase(), mixed] {
                assert!(is_keyword(&chars(&form)), "{form} is a keyword");
            }
            // One letter short or one letter long is a keyword only if
            // the list says so itself (AS/ASC, IN/INTO/INNER share prefixes).
            let prefix = &kw[..kw.len() - 1];
            assert_eq!(is_keyword(&chars(prefix)), KEYWORDS.contains(&prefix), "{prefix}");
            let extended = format!("{kw}S");
            assert_eq!(
                is_keyword(&chars(&extended)),
                KEYWORDS.contains(&extended.as_str()),
                "{extended}"
            );
        }
        for ident in ["SELEC", "SELECTS", "ROLLBACKS", "limitless", "", "_", "a1", "café", "ＳＥＬＥＣＴ"] {
            assert!(!is_keyword(&chars(ident)), "{ident:?} is not a keyword");
        }
    }

    #[test]
    fn numbers_and_strings_lex() {
        let toks = tokenize("WHERE id = 5 AND name = 'bob''s'");
        assert!(toks.contains(&Token::Number("5".into())));
        assert!(toks.contains(&Token::Str("bob's".into())));
    }

    #[test]
    fn decimals_and_exponents_lex_as_one_number() {
        let toks = tokenize("x = 3.14 AND y = 1e-3 AND z = .5");
        let nums: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                Token::Number(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["3.14", "1e-3", ".5"]);
    }

    #[test]
    fn comments_are_skipped() {
        let toks = tokenize("SELECT a -- trailing\nFROM t /* block */ WHERE b = 1");
        let rendered = render(&toks);
        assert_eq!(rendered, "SELECT a FROM t WHERE b = 1");
    }

    #[test]
    fn two_char_operators() {
        let toks = tokenize("a <= 1 AND b <> 2 AND c != 3 AND d >= 4");
        assert!(toks.contains(&Token::Op2(['<', '='])));
        assert!(toks.contains(&Token::Op2(['<', '>'])));
        assert!(toks.contains(&Token::Op2(['!', '='])));
        assert!(toks.contains(&Token::Op2(['>', '='])));
    }

    #[test]
    fn render_normalizes_spacing_and_brackets() {
        let toks = tokenize("SELECT  a ,b FROM t WHERE x IN ( 1,2 )");
        assert_eq!(render(&toks), "SELECT a, b FROM t WHERE x IN (1, 2)");
    }

    #[test]
    fn dotted_names_render_tightly() {
        let toks = tokenize("SELECT A.id FROM A");
        assert_eq!(render(&toks), "SELECT a.id FROM a");
    }

    #[test]
    fn unterminated_string_is_closed() {
        let toks = tokenize("WHERE a = 'oops");
        assert_eq!(toks.last(), Some(&Token::Str("oops".into())));
    }

    #[test]
    fn existing_placeholders_survive() {
        let toks = tokenize("WHERE id = $ AND age > & AND height < #");
        assert_eq!(toks.iter().filter(|t| **t == Token::Placeholder).count(), 3);
    }

    #[test]
    fn normalization_examples_from_paper() {
        // "the same usage of spacing, case, bracket placement"
        let a = render(&tokenize("SELECT * FROM Stu WHERE id=5"));
        let b = render(&tokenize("select  *  from  stu  where  id = 5"));
        assert_eq!(a, b);
    }
}
