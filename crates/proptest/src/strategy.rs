//! The `Strategy` trait and the combinators the workspace uses.

use std::fmt::Debug;
use std::ops::Range;
use std::rc::Rc;

use crate::TestRng;

/// A generator of values for property tests.
///
/// Unlike real proptest there is no value tree / shrinking: a strategy is
/// just a cloneable recipe that draws one value from a [`TestRng`].
pub trait Strategy: Clone {
    /// The type of generated values.
    type Value: Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        O: Debug,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f: Rc::new(f) }
    }

    /// Type-erase this strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
    {
        let s = self;
        BoxedStrategy(Rc::new(move |rng| s.generate(rng)))
    }

    /// Build a recursive strategy: `self` is the leaf case and `recurse`
    /// wraps an inner strategy into one more level of structure.
    ///
    /// Real proptest recurses probabilistically under a size budget; this
    /// stand-in unrolls exactly `depth` levels eagerly, which bounds depth
    /// by construction (the `desired_size`/`expected_branch_size` hints are
    /// accepted but unused).
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut acc = self.boxed();
        for _ in 0..depth {
            acc = recurse(acc).boxed();
        }
        acc
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: Rc<F>,
}

impl<S: Clone, F> Clone for Map<S, F> {
    fn clone(&self) -> Self {
        Map { inner: self.inner.clone(), f: Rc::clone(&self.f) }
    }
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    O: Debug,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A type-erased, reference-counted strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Uniform choice between same-valued alternatives — the engine behind
/// `prop_oneof!`.
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union(self.0.clone())
    }
}

impl<T: Debug> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let ix = rng.below(self.0.len());
        self.0[ix].generate(rng)
    }
}

/// `prop_oneof![s1, s2, ...]` — uniform choice among strategies with the
/// same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.in_range_i128(self.start as i128, self.end as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + (self.end - self.start) * unit
    }
}

macro_rules! tuple_strategy {
    ($(($($n:ident),+))*) => {$(
        #[allow(non_snake_case, reason = "the tuple's type parameters name its bindings")]
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($n,)+) = self;
                ($($n.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

// ---------------------------------------------------------------------------
// &str regex-subset strategies
// ---------------------------------------------------------------------------

/// `&str` patterns act as string strategies, supporting the subset of regex
/// the repo's tests use: a concatenation of atoms, where an atom is a
/// character class `[...]` (with ranges and `\`-escapes), the printable-
/// character shorthand `\PC`, or a literal character — each optionally
/// followed by `{n}` / `{m,n}`.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        // Parsing per generation keeps the impl simple; patterns are tiny
        // and this is test-only code.
        let atoms = parse_pattern(self);
        let mut out = String::new();
        for atom in &atoms {
            let n = atom.min + rng.below(atom.max - atom.min + 1);
            for _ in 0..n {
                out.push(atom.pool[rng.below(atom.pool.len())]);
            }
        }
        out
    }
}

struct Atom {
    pool: Vec<char>,
    min: usize,
    max: usize,
}

fn printable_pool() -> Vec<char> {
    let mut pool: Vec<char> = (' '..='~').collect();
    pool.extend(['\u{e9}', '\u{df}', '\u{3b1}', '\u{4e2d}', '\u{1F600}']);
    pool
}

fn parse_pattern(pat: &str) -> Vec<Atom> {
    let chars: Vec<char> = pat.chars().collect();
    let mut i = 0;
    let mut atoms = Vec::new();
    while i < chars.len() {
        let pool = match chars[i] {
            '[' => {
                let (pool, next) = parse_class(&chars, i + 1, pat);
                i = next;
                pool
            }
            '\\' => {
                if chars.get(i + 1) == Some(&'P') && chars.get(i + 2) == Some(&'C') {
                    i += 3;
                    printable_pool()
                } else if let Some(&c) = chars.get(i + 1) {
                    i += 2;
                    vec![c]
                } else {
                    panic!("dangling backslash in pattern {pat:?}");
                }
            }
            '{' | '}' | '*' | '+' | '?' | '(' | ')' | '|' => {
                panic!("unsupported regex construct {:?} in pattern {pat:?}", chars[i])
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        let (min, max) = if chars.get(i) == Some(&'{') {
            let close = chars[i..].iter().position(|&c| c == '}').unwrap_or_else(|| {
                panic!("unterminated repetition in pattern {pat:?}");
            }) + i;
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("bad repetition lower bound"),
                    hi.trim().parse().expect("bad repetition upper bound"),
                ),
                None => {
                    let n = body.trim().parse().expect("bad repetition count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        assert!(min <= max, "bad repetition {{{min},{max}}} in pattern {pat:?}");
        assert!(!pool.is_empty(), "empty character class in pattern {pat:?}");
        atoms.push(Atom { pool, min, max });
    }
    atoms
}

fn parse_class(chars: &[char], mut i: usize, pat: &str) -> (Vec<char>, usize) {
    let mut pool = Vec::new();
    while i < chars.len() && chars[i] != ']' {
        let c = if chars[i] == '\\' {
            i += 1;
            *chars.get(i).unwrap_or_else(|| panic!("dangling backslash in class in {pat:?}"))
        } else {
            chars[i]
        };
        // range `a-z`? only when `-` is flanked by two class members
        if chars.get(i + 1) == Some(&'-') && chars.get(i + 2).map(|&e| e != ']').unwrap_or(false) {
            let hi = chars[i + 2];
            assert!(c <= hi, "inverted range {c}-{hi} in pattern {pat:?}");
            for v in c as u32..=hi as u32 {
                if let Some(ch) = char::from_u32(v) {
                    pool.push(ch);
                }
            }
            i += 3;
        } else {
            pool.push(c);
            i += 1;
        }
    }
    assert!(chars.get(i) == Some(&']'), "unterminated character class in {pat:?}");
    (pool, i + 1)
}
