//! Allocation-free template fingerprints: the O(1) fast path in front
//! of the full canonicalizer.
//!
//! [`fingerprint`] hashes the *templatized token skeleton* of a SQL
//! statement — the same token stream [`tokenize`](crate::tokenize) +
//! [`templatize`](crate::templatize) would produce, with every literal
//! and placeholder collapsed to one marker — without materializing a
//! single token. Two statements that differ only in literal values,
//! whitespace, comments, or letter case therefore hash identically, so
//! a bounded `fingerprint → TemplateId` cache can answer repeat
//! statements in one hash-map probe instead of a full lex + clause
//! canonicalization.
//!
//! The fingerprint is deliberately *finer* than the canonical template:
//! the canonicalizer also reorders commutative clauses (`AND`
//! conjuncts, `SELECT` lists, …), so two different skeletons may still
//! canonicalize to one template. That is harmless — each skeleton gets
//! its own cache entry pointing at the same [`TemplateId`] — and it is
//! what keeps the fast path a pure streaming scan. A 64-bit FNV-1a
//! collision between two *distinct* skeletons would alias their
//! templates; at the cache's bounded size the probability is
//! negligible (~n²/2⁶⁴), and the cache is advisory: dropping it costs
//! only recomputation, never durability.

use crate::token::{is_keyword, with_chars};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Token-class tags folded into the hash. Literals and placeholders
/// share one tag because templatization maps them all to `?`.
const TAG_LITERAL: u8 = 0x01;
const TAG_KEYWORD: u8 = 0x02;
const TAG_IDENT: u8 = 0x03;
const TAG_OP2: u8 = 0x04;
const TAG_SYMBOL: u8 = 0x05;

#[inline]
fn fold(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

#[inline]
fn fold_char(mut h: u64, c: char) -> u64 {
    for b in (c as u32).to_le_bytes() {
        h = fold(h, b);
    }
    h
}

/// Hash the templatized token skeleton of `sql` in one streaming pass.
///
/// Mirrors the lexer in [`crate::tokenize`] class for class (comments
/// skipped, `''` escapes honoured, unterminated strings closed at end
/// of input) so that equal token skeletons — after literal
/// templatization — always produce equal fingerprints.
pub fn fingerprint(sql: &str) -> u64 {
    with_chars(sql, fingerprint_chars)
}

fn fingerprint_chars(chars: &[char]) -> u64 {
    let mut h = FNV_OFFSET;
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
        // String literal: value is templatized away, only skip it.
        if c == '\'' {
            i += 1;
            while i < chars.len() {
                if chars[i] == '\'' {
                    if chars.get(i + 1) == Some(&'\'') {
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                i += 1;
            }
            h = fold(h, TAG_LITERAL);
            continue;
        }
        // Number literal: likewise a single marker.
        if c.is_ascii_digit()
            || (c == '.' && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit()))
        {
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
            h = fold(h, TAG_LITERAL);
            continue;
        }
        // Identifier or keyword, case-normalized into the hash.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word = &chars[start..i];
            if is_keyword(word) {
                h = fold(h, TAG_KEYWORD);
                for &wc in word {
                    h = fold_char(h, wc.to_ascii_uppercase());
                }
            } else {
                h = fold(h, TAG_IDENT);
                for &wc in word {
                    h = fold_char(h, wc.to_ascii_lowercase());
                }
            }
            continue;
        }
        // Pre-existing placeholders collapse with literals.
        if c == '?' || c == '$' || c == '&' || c == '#' {
            h = fold(h, TAG_LITERAL);
            i += 1;
            continue;
        }
        // Two-character operators.
        if let Some(&n) = chars.get(i + 1) {
            let pair = [c, n];
            if matches!(pair, ['<', '='] | ['>', '='] | ['<', '>'] | ['!', '='] | ['|', '|']) {
                h = fold(h, TAG_OP2);
                h = fold_char(h, c);
                h = fold_char(h, n);
                i += 2;
                continue;
            }
        }
        h = fold(h, TAG_SYMBOL);
        h = fold_char(h, c);
        i += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::templatize_tokens;
    use crate::tokenize;

    /// Reference skeleton the fingerprint must agree with.
    fn skeleton(sql: &str) -> Vec<crate::Token> {
        templatize_tokens(tokenize(sql))
    }

    #[test]
    fn literal_values_do_not_change_the_fingerprint() {
        let a = fingerprint("SELECT * FROM stu WHERE id = 5");
        let b = fingerprint("SELECT * FROM stu WHERE id = 999");
        let c = fingerprint("SELECT * FROM stu WHERE id = 'bob'");
        let d = fingerprint("SELECT * FROM stu WHERE id = ?");
        assert_eq!(a, b);
        assert_eq!(a, c, "string and number literals templatize alike");
        assert_eq!(a, d, "prepared-statement placeholders templatize alike");
    }

    #[test]
    fn case_whitespace_and_comments_do_not_change_the_fingerprint() {
        let a = fingerprint("select  NAME from Stu -- trailing\n where ID=3");
        let b = fingerprint("SELECT name FROM stu WHERE id = 7 /* block */");
        assert_eq!(a, b);
    }

    #[test]
    fn different_skeletons_get_different_fingerprints() {
        let fps = [
            fingerprint("SELECT a FROM t WHERE x = 1"),
            fingerprint("SELECT b FROM t WHERE x = 1"),
            fingerprint("SELECT a FROM u WHERE x = 1"),
            fingerprint("SELECT a FROM t WHERE x < 1"),
            fingerprint("SELECT a FROM t WHERE x <= 1"),
            fingerprint("DELETE FROM t WHERE x = 1"),
            fingerprint("SELECT a, b FROM t"),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "statements {i} and {j} collide");
            }
        }
    }

    #[test]
    fn fingerprint_agrees_with_the_templatized_token_stream() {
        // Pairs with equal skeletons hash equal; unequal skeletons hash
        // differently — the exact contract the template cache relies on.
        let statements = [
            "SELECT * FROM stu WHERE id = 5",
            "select * from STU where ID = 12345",
            "SELECT * FROM stu WHERE id = 'x'",
            "SELECT name FROM stu WHERE id = 5",
            "INSERT INTO t (a, b) VALUES (1, 'two')",
            "INSERT INTO t (a, b) VALUES (9, 'ten')",
            "UPDATE t SET a = 1 WHERE b >= 2 AND c <> 3",
            "UPDATE t SET a = 4 WHERE b >= 5 AND c <> 6",
            "SELECT x FROM a.b WHERE y IN (1, 2, 3)",
            "WHERE a = 'oops", // unterminated string, closed at EOF
        ];
        for x in &statements {
            for y in &statements {
                let same_skel = skeleton(x) == skeleton(y);
                let same_fp = fingerprint(x) == fingerprint(y);
                assert_eq!(
                    same_skel, same_fp,
                    "skeleton/fingerprint disagree for {x:?} vs {y:?}"
                );
            }
        }
    }

    #[test]
    fn keyword_detection_matches_the_lexer() {
        // "limitless" is an ident even though it starts with a keyword;
        // non-ascii words are idents; 8-char keywords still match.
        let a = fingerprint("SELECT limitless FROM t");
        let b = fingerprint("SELECT LIMITLESS FROM t");
        assert_eq!(a, b, "idents are case-folded");
        let k1 = fingerprint("ROLLBACK");
        let k2 = fingerprint("rollback");
        assert_eq!(k1, k2);
        assert_ne!(fingerprint("SELECT café FROM t"), fingerprint("SELECT cafe FROM t"));
    }
}
