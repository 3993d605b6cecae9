//! [`StatementHandle`]: what the ingest path has already parsed out of
//! one SQL statement, carried from the front door down to the registry
//! so no layer repeats another's work.

use crate::canon::canonicalize;
use crate::fingerprint::fingerprint;

/// The parse results of one statement: its fingerprint, and — once some
/// layer has had to compute it — its canonical template string.
///
/// A handle is made once per statement ([`StatementHandle::of`]) and
/// travels *beside* the statement text it was made from; every
/// handle-taking method takes both, and pairing a handle with a
/// different statement is a caller bug. The canonical form is computed
/// lazily and at most once: a shard router that misses its cache fills
/// it in ([`canonical`](Self::canonical)), and the registry consumes it
/// ([`TemplateRegistry::observe_parsed`]) instead of canonicalizing
/// again.
///
/// [`TemplateRegistry::observe_parsed`]: crate::TemplateRegistry::observe_parsed
#[derive(Debug, Clone)]
pub struct StatementHandle {
    fingerprint: u64,
    canonical: Option<String>,
}

impl StatementHandle {
    /// Fingerprint `sql` (one allocation-free scan); the canonical form
    /// stays uncomputed until a layer asks for it.
    pub fn of(sql: &str) -> Self {
        Self { fingerprint: fingerprint(sql), canonical: None }
    }

    /// The statement's [`fingerprint`](crate::fingerprint()).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The canonical template of `sql` — the statement this handle was
    /// made from — computed on first use and kept for later layers.
    pub fn canonical(&mut self, sql: &str) -> &str {
        self.canonical.get_or_insert_with(|| canonicalize(sql))
    }

    /// Consume the handle for its canonical string, canonicalizing
    /// `sql` only if no earlier layer did.
    pub(crate) fn into_canonical(self, sql: &str) -> String {
        self.canonical.unwrap_or_else(|| canonicalize(sql))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_lazy_and_matches_the_canonicalizer() {
        let sql = "select b, a from T where id = 7 -- c";
        let mut stmt = StatementHandle::of(sql);
        assert_eq!(stmt.fingerprint(), fingerprint(sql));
        assert!(stmt.canonical.is_none(), "nothing canonicalized until asked");
        assert_eq!(stmt.canonical(sql), canonicalize(sql));
        // A filled handle hands back what it holds without re-parsing:
        // the (deliberately wrong) text here is never looked at.
        assert_eq!(stmt.clone().into_canonical("DELETE FROM u"), canonicalize(sql));
        assert_eq!(StatementHandle::of(sql).into_canonical(sql), canonicalize(sql));
    }
}
