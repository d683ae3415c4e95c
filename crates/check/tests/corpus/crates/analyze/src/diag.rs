//! Corpus fixture: a code registry with a gap and a duplicate. The
//! registry-integrity half of `diag-code-registry` was retired by the
//! audit (`code_registry_has_no_duplicates_or_gaps` iterates the
//! table-generated `Code::ALL`), so nothing is reported here any more.

impl Code {
    pub fn id(&self) -> &'static str {
        match self {
            Code::A => "FA001",
            Code::B => "FA001",
            Code::C => "PK001",
            Code::D => "PK003",
        }
    }
}
