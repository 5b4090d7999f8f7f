//! Bit-packed truth tables for Boolean functions of up to 16 variables.
//!
//! The convention is **LSB-first**: bit `m` of the table is the function
//! value at the minterm where variable `i` takes bit `i` of `m`. For
//! functions of up to 6 variables the whole table fits in one `u64`; the
//! hexadecimal rendering matches the notation used throughout the paper
//! (e.g. the running example `0x8ff8`).

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use crate::error::TruthTableError;
use crate::kernel::{self, VAR_MASK};

/// Maximum supported number of variables.
pub const MAX_VARS: usize = 16;

/// A Boolean function of `num_vars` inputs, stored as a packed truth
/// table.
///
/// # Examples
///
/// ```
/// use stp_tt::TruthTable;
///
/// let a = TruthTable::variable(2, 0)?;
/// let b = TruthTable::variable(2, 1)?;
/// let and = a.clone() & b.clone();
/// assert_eq!(and.to_hex(), "8");
/// assert_eq!((a | b).to_hex(), "e");
/// # Ok::<(), stp_tt::TruthTableError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

fn words_for(num_vars: usize) -> usize {
    if num_vars <= 6 {
        1
    } else {
        1 << (num_vars - 6)
    }
}

fn used_mask(num_vars: usize) -> u64 {
    if num_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1 << num_vars)) - 1
    }
}

/// Infers the input arity of a bare hex truth table, as the command
/// line and the `stpd` protocol read one: `d` digits hold `4·d` bits,
/// which must be a power of two. `None` when they are not; each caller
/// names its own way to pass the arity explicitly.
pub fn infer_num_vars(hex: &str) -> Option<usize> {
    let bits = hex.len().saturating_mul(4);
    (!hex.is_empty() && bits.is_power_of_two()).then(|| bits.trailing_zeros() as usize)
}

impl TruthTable {
    fn check_vars(num_vars: usize) -> Result<(), TruthTableError> {
        if num_vars > MAX_VARS {
            Err(TruthTableError::TooManyVariables { requested: num_vars, max: MAX_VARS })
        } else {
            Ok(())
        }
    }

    /// The constant function.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::TooManyVariables`] if
    /// `num_vars > MAX_VARS`.
    pub fn constant(num_vars: usize, value: bool) -> Result<Self, TruthTableError> {
        Self::check_vars(num_vars)?;
        let mut words = vec![if value { u64::MAX } else { 0 }; words_for(num_vars)];
        if value {
            let mask = used_mask(num_vars);
            if let Some(w) = words.last_mut() {
                *w &= mask;
            }
        }
        Ok(TruthTable { num_vars, words })
    }

    /// The projection onto variable `var`.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::TooManyVariables`] or
    /// [`TruthTableError::VariableOutOfRange`].
    pub fn variable(num_vars: usize, var: usize) -> Result<Self, TruthTableError> {
        Self::check_vars(num_vars)?;
        if var >= num_vars {
            return Err(TruthTableError::VariableOutOfRange { var, num_vars });
        }
        let mut tt = Self::constant(num_vars, false)?;
        for (i, w) in tt.words.iter_mut().enumerate() {
            *w = kernel::var_word(var, i) & used_mask(num_vars);
        }
        Ok(tt)
    }

    /// Builds a table from raw words (LSB-first).
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::WordCountMismatch`] when the buffer
    /// length is wrong, or [`TruthTableError::TooManyVariables`].
    pub fn from_words(num_vars: usize, words: Vec<u64>) -> Result<Self, TruthTableError> {
        Self::check_vars(num_vars)?;
        let expected = words_for(num_vars);
        if words.len() != expected {
            return Err(TruthTableError::WordCountMismatch { expected, got: words.len() });
        }
        let mut tt = TruthTable { num_vars, words };
        tt.mask_tail();
        Ok(tt)
    }

    /// Builds a table of ≤ 6 variables from a single word.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::TooManyVariables`] if `num_vars > 6`.
    pub fn from_u64(num_vars: usize, bits: u64) -> Result<Self, TruthTableError> {
        if num_vars > 6 {
            return Err(TruthTableError::TooManyVariables { requested: num_vars, max: 6 });
        }
        Ok(TruthTable { num_vars, words: vec![bits & used_mask(num_vars)] })
    }

    /// Parses a hexadecimal truth table (most significant digit first), as
    /// written in the paper (e.g. `"8ff8"` for the running example).
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::ParseHex`] when the digit count does not
    /// equal `2^num_vars / 4` (with a minimum of one digit), or on invalid
    /// digits, and [`TruthTableError::TooManyVariables`].
    pub fn from_hex(num_vars: usize, hex: &str) -> Result<Self, TruthTableError> {
        Self::check_vars(num_vars)?;
        let digits = ((1usize << num_vars) / 4).max(1);
        if hex.len() != digits {
            return Err(TruthTableError::ParseHex {
                reason: format!(
                    "expected {digits} hex digits for {num_vars} variables, got {}",
                    hex.len()
                ),
            });
        }
        let mut words = vec![0u64; words_for(num_vars)];
        for (pos, ch) in hex.chars().rev().enumerate() {
            let v = ch.to_digit(16).ok_or_else(|| TruthTableError::ParseHex {
                reason: format!("invalid hex digit '{ch}'"),
            })? as u64;
            let bit = pos * 4;
            words[bit / 64] |= v << (bit % 64);
        }
        let mut tt = TruthTable { num_vars, words };
        tt.mask_tail();
        Ok(tt)
    }

    /// Builds a table by evaluating `f` at every minterm; the slice holds
    /// the value of each variable.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::TooManyVariables`].
    pub fn from_fn<F>(num_vars: usize, mut f: F) -> Result<Self, TruthTableError>
    where
        F: FnMut(&[bool]) -> bool,
    {
        Self::check_vars(num_vars)?;
        let mut tt = Self::constant(num_vars, false)?;
        let mut assign = vec![false; num_vars];
        for m in 0..(1usize << num_vars) {
            for (i, slot) in assign.iter_mut().enumerate() {
                *slot = (m >> i) & 1 == 1;
            }
            if f(&assign) {
                tt.words[m / 64] |= 1u64 << (m % 64);
            }
        }
        Ok(tt)
    }

    fn mask_tail(&mut self) {
        if self.num_vars < 6 {
            let mask = used_mask(self.num_vars);
            self.words[0] &= mask;
        }
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of minterms, `2^num_vars`.
    pub fn num_bits(&self) -> usize {
        1 << self.num_vars
    }

    /// The packed words (LSB-first).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The function value at minterm `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m >= 2^num_vars`.
    pub fn bit(&self, m: usize) -> bool {
        assert!(m < self.num_bits(), "minterm {m} out of range");
        (self.words[m / 64] >> (m % 64)) & 1 == 1
    }

    /// Evaluates the function at an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assign.len() != num_vars`.
    pub fn eval(&self, assign: &[bool]) -> bool {
        assert_eq!(assign.len(), self.num_vars, "assignment length mismatch");
        let mut m = 0usize;
        for (i, &v) in assign.iter().enumerate() {
            if v {
                m |= 1 << i;
            }
        }
        self.bit(m)
    }

    /// Number of minterms where the function is true.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns the cofactor with `var` fixed to `value`, as a table over
    /// the **same** variable set (the fixed variable becomes a don't-care).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor(&self, var: usize, value: bool) -> TruthTable {
        assert!(var < self.num_vars, "variable {var} out of range");
        let mut out = self.clone();
        if var < 6 {
            let shift = 1usize << var;
            let mask = VAR_MASK[var];
            for w in &mut out.words {
                if value {
                    let hi = *w & mask;
                    *w = hi | (hi >> shift);
                } else {
                    let lo = *w & !mask;
                    *w = lo | (lo << shift);
                }
            }
        } else {
            let stride = 1usize << (var - 6);
            let n = out.words.len();
            for i in 0..n {
                let block = i / stride;
                let src = if value {
                    (block | 1) * stride + (i % stride)
                } else {
                    (block & !1usize) * stride + (i % stride)
                };
                out.words[i] = self.words[src];
            }
        }
        out.mask_tail();
        out
    }

    /// `true` when the function's value depends on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor(var, false) != self.cofactor(var, true)
    }

    /// The set of variables the function depends on, ascending.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars).filter(|&v| self.depends_on(v)).collect()
    }

    /// The support as a bitmask (bit `v` set ⇔ the function depends on
    /// `v`) — the allocation-free form of [`support`](Self::support),
    /// computed by word-level cofactor comparison.
    pub fn support_mask(&self) -> u64 {
        kernel::support_mask(&self.words, self.num_vars)
    }

    /// Swaps inputs `a` and `b` — equivalent to [`permute`](Self::permute)
    /// with the transposition `(a b)`, but as masked delta-swaps instead
    /// of a per-minterm loop.
    ///
    /// # Panics
    ///
    /// Panics if either variable is `>= num_vars`.
    pub fn swap_inputs(&self, a: usize, b: usize) -> TruthTable {
        let mut out = self.clone();
        kernel::swap_in_place(&mut out.words, self.num_vars, a, b);
        out
    }

    /// Projects the function onto `vars`, which must cover its support:
    /// the result is a `vars.len()`-input table whose input `k` reads
    /// what `vars[k]` read in `self`. Variables outside `vars` are fixed
    /// to `0` (a no-op when `vars` ⊇ support).
    ///
    /// This is the word-level compaction primitive behind the
    /// factorization fast path: compacting a spec onto `B ++ A ++ S`
    /// turns every decomposition chart of the split `(A, B, S)` into a
    /// contiguous, power-of-two-aligned bit slice.
    ///
    /// # Panics
    ///
    /// Panics if `vars` repeats a variable or names one `>= num_vars`.
    pub fn compact_on(&self, vars: &[usize]) -> TruthTable {
        let mut words = self.words.clone();
        let mut listed = 0u64;
        for &v in vars {
            assert!(v < self.num_vars, "variable {v} out of range");
            listed |= 1u64 << v;
        }
        for v in 0..self.num_vars {
            if listed >> v & 1 == 0 {
                kernel::cofactor0_in_place(&mut words, self.num_vars, v);
            }
        }
        let mut plan = [(0u8, 0u8); MAX_VARS];
        let len = kernel::front_swap_plan(self.num_vars, vars, &mut plan);
        for &(i, p) in &plan[..len] {
            kernel::swap_in_place(&mut words, self.num_vars, i as usize, p as usize);
        }
        words.truncate(kernel::words_len(vars.len()));
        let mut out = TruthTable { num_vars: vars.len(), words };
        out.mask_tail();
        out
    }

    /// The inverse of [`compact_on`](Self::compact_on): expands a
    /// `self.num_vars()`-input table to `num_vars` inputs so that input
    /// `vars[k]` of the result reads input `k` of `self` (all other
    /// variables are don't-cares). Word-level tile-and-unswap, no
    /// per-minterm loop.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() != self.num_vars()`, if `num_vars` exceeds
    /// [`MAX_VARS`], or if `vars` repeats a variable or names one
    /// `>= num_vars`.
    pub fn expand_onto(&self, num_vars: usize, vars: &[usize]) -> TruthTable {
        assert_eq!(vars.len(), self.num_vars, "vars must map every input of self");
        assert!(num_vars <= MAX_VARS, "{num_vars} exceeds MAX_VARS");
        let mut words = vec![0u64; kernel::words_len(num_vars)];
        kernel::tile_words(&self.words, self.num_vars, num_vars, &mut words);
        let mut plan = [(0u8, 0u8); MAX_VARS];
        let len = kernel::front_swap_plan(num_vars, vars, &mut plan);
        for &(i, p) in plan[..len].iter().rev() {
            kernel::swap_in_place(&mut words, num_vars, i as usize, p as usize);
        }
        let mut out = TruthTable { num_vars, words };
        out.mask_tail();
        out
    }

    /// Negates input `var` (swaps its cofactors).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn flip_input(&self, var: usize) -> TruthTable {
        let mut out = self.clone();
        kernel::flip_in_place(&mut out.words, self.num_vars, var);
        out
    }

    /// Applies an input permutation: variable `i` of the result reads the
    /// value that variable `perm[i]` read before (`g(x) = f(x ∘ perm)` in
    /// the sense that minterm bits are rearranged so position `i` receives
    /// old position `perm[i]`).
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::InvalidPermutation`] when `perm` is not
    /// a permutation of `0..num_vars`.
    pub fn permute(&self, perm: &[usize]) -> Result<TruthTable, TruthTableError> {
        if perm.len() != self.num_vars {
            return Err(TruthTableError::InvalidPermutation);
        }
        let mut seen = vec![false; self.num_vars];
        for &p in perm {
            if p >= self.num_vars || seen[p] {
                return Err(TruthTableError::InvalidPermutation);
            }
            seen[p] = true;
        }
        let mut out =
            TruthTable::constant(self.num_vars, false).expect("same variable count is valid");
        for m in 0..self.num_bits() {
            if self.bit(m) {
                // Minterm m assigns old variable j the bit (m >> j) & 1;
                // in the new table, variable i holds what old perm[i] held.
                let mut nm = 0usize;
                for (i, &p) in perm.iter().enumerate() {
                    if (m >> p) & 1 == 1 {
                        nm |= 1 << i;
                    }
                }
                out.words[nm / 64] |= 1u64 << (nm % 64);
            }
        }
        Ok(out)
    }

    /// `true` for constants and (possibly complemented) single-variable
    /// projections — the functions that never cost a gate.
    pub fn is_trivial(&self) -> bool {
        let ones = self.count_ones();
        ones == 0 || ones == self.num_bits() || self.projection().is_some()
    }

    /// The variable this table projects and whether it is complemented:
    /// `Some((v, false))` for `x_v`, `Some((v, true))` for `¬x_v`, and
    /// `None` for every other table, constants included. Compares words
    /// in place, so it allocates nothing.
    pub fn projection(&self) -> Option<(usize, bool)> {
        let used = used_mask(self.num_vars);
        (0..self.num_vars).find_map(|v| {
            let var = |i: usize| kernel::var_word(v, i) & used;
            if self.words.iter().enumerate().all(|(i, &w)| w == var(i)) {
                Some((v, false))
            } else if self.words.iter().enumerate().all(|(i, &w)| w == !var(i) & used) {
                Some((v, true))
            } else {
                None
            }
        })
    }

    /// Renders as lowercase hexadecimal, most significant digit first,
    /// matching the paper's `0x…` notation (without the prefix).
    pub fn to_hex(&self) -> String {
        let digits = (self.num_bits() / 4).max(1);
        let mut out = String::with_capacity(digits);
        for d in (0..digits).rev() {
            let bit = d * 4;
            let nibble = if self.num_bits() < 4 {
                self.words[0] & used_mask(self.num_vars)
            } else {
                (self.words[bit / 64] >> (bit % 64)) & 0xf
            };
            out.push(char::from_digit(nibble as u32, 16).expect("nibble < 16"));
        }
        out
    }

    /// Extends the table to `new_num_vars` variables (the new variables
    /// are don't-cares).
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::TooManyVariables`] when the target
    /// exceeds [`MAX_VARS`], or [`TruthTableError::VariableOutOfRange`]
    /// when shrinking is requested.
    pub fn extend_to(&self, new_num_vars: usize) -> Result<TruthTable, TruthTableError> {
        Self::check_vars(new_num_vars)?;
        if new_num_vars < self.num_vars {
            return Err(TruthTableError::VariableOutOfRange {
                var: new_num_vars,
                num_vars: self.num_vars,
            });
        }
        TruthTable::from_fn(new_num_vars, |assign| self.eval(&assign[..self.num_vars]))
    }

    /// Restricts the table to its first `new_num_vars` variables.
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::VariableOutOfRange`] when the function
    /// depends on a dropped variable.
    pub fn shrink_to(&self, new_num_vars: usize) -> Result<TruthTable, TruthTableError> {
        for v in new_num_vars..self.num_vars {
            if self.depends_on(v) {
                return Err(TruthTableError::VariableOutOfRange { var: v, num_vars: new_num_vars });
            }
        }
        TruthTable::from_fn(new_num_vars, |assign| {
            let mut full = assign.to_vec();
            full.resize(self.num_vars, false);
            self.eval(&full)
        })
    }

    /// Combines two equal-arity tables with a 2-input operator given as a
    /// 4-bit truth table (`tt2` bit `a + 2b` is `σ(a, b)`).
    ///
    /// # Errors
    ///
    /// Returns [`TruthTableError::ArityMismatch`] when the variable counts
    /// differ.
    pub fn binary_op(&self, tt2: u8, rhs: &TruthTable) -> Result<TruthTable, TruthTableError> {
        if self.num_vars != rhs.num_vars {
            return Err(TruthTableError::ArityMismatch {
                left: self.num_vars,
                right: rhs.num_vars,
            });
        }
        let mut out = self.clone();
        for (w, (&a, &b)) in out.words.iter_mut().zip(self.words.iter().zip(&rhs.words)) {
            *w = kernel::lut2(tt2, a, b);
        }
        out.mask_tail();
        Ok(out)
    }
}

impl Not for TruthTable {
    type Output = TruthTable;

    fn not(mut self) -> TruthTable {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
        self
    }
}

impl BitAnd for TruthTable {
    type Output = TruthTable;

    /// # Panics
    ///
    /// Panics if the variable counts differ; use
    /// [`TruthTable::binary_op`] for a fallible version.
    fn bitand(self, rhs: TruthTable) -> TruthTable {
        self.binary_op(0b1000, &rhs).expect("operand arities must match")
    }
}

impl BitOr for TruthTable {
    type Output = TruthTable;

    /// # Panics
    ///
    /// Panics if the variable counts differ; use
    /// [`TruthTable::binary_op`] for a fallible version.
    fn bitor(self, rhs: TruthTable) -> TruthTable {
        self.binary_op(0b1110, &rhs).expect("operand arities must match")
    }
}

impl BitXor for TruthTable {
    type Output = TruthTable;

    /// # Panics
    ///
    /// Panics if the variable counts differ; use
    /// [`TruthTable::binary_op`] for a fallible version.
    fn bitxor(self, rhs: TruthTable) -> TruthTable {
        self.binary_op(0b0110, &rhs).expect("operand arities must match")
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, 0x{})", self.num_vars, self.to_hex())
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::LowerHex for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_is_inferred_from_the_hex_digit_count() {
        assert_eq!(infer_num_vars("8"), Some(2));
        assert_eq!(infer_num_vars("e8"), Some(3));
        assert_eq!(infer_num_vars("8ff8"), Some(4));
        assert_eq!(infer_num_vars(&"0".repeat(16)), Some(6));
        for hex in ["", "965", "e8f3a1"] {
            assert_eq!(infer_num_vars(hex), None, "{hex}");
        }
    }

    #[test]
    fn projection_matches_the_built_projections() {
        for n in 1..=8 {
            for v in 0..n {
                let proj = TruthTable::variable(n, v).unwrap();
                assert_eq!(proj.projection(), Some((v, false)));
                assert_eq!((!proj).projection(), Some((v, true)));
            }
            assert_eq!(TruthTable::constant(n, false).unwrap().projection(), None);
            assert_eq!(TruthTable::constant(n, true).unwrap().projection(), None);
        }
        // Every 3-input table: trivial exactly when constant or a
        // (complemented) projection.
        for bits in 0..256u64 {
            let tt = TruthTable::from_words(3, vec![bits]).unwrap();
            let want = bits == 0
                || bits == 0xff
                || (0..3).any(|v| {
                    let p = TruthTable::variable(3, v).unwrap();
                    tt == p || tt == !p
                });
            assert_eq!(tt.is_trivial(), want, "{bits:02x}");
        }
    }

    #[test]
    fn variables_have_expected_patterns() {
        let a = TruthTable::variable(2, 0).unwrap();
        let b = TruthTable::variable(2, 1).unwrap();
        assert_eq!(a.words()[0], 0b1010);
        assert_eq!(b.words()[0], 0b1100);
    }

    #[test]
    fn hex_round_trip() {
        let tt = TruthTable::from_hex(4, "8ff8").unwrap();
        assert_eq!(tt.to_hex(), "8ff8");
        assert_eq!(tt.words()[0], 0x8ff8);
        assert_eq!(format!("{tt}"), "0x8ff8");
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert!(TruthTable::from_hex(4, "8ff").is_err());
        assert!(TruthTable::from_hex(4, "8fg8").is_err());
    }

    #[test]
    fn hex_eight_variables() {
        let hex = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";
        let tt = TruthTable::from_hex(8, hex).unwrap();
        assert_eq!(tt.to_hex(), hex);
        assert_eq!(tt.words().len(), 4);
    }

    #[test]
    fn operators_match_pointwise_semantics() {
        let a = TruthTable::variable(3, 0).unwrap();
        let b = TruthTable::variable(3, 2).unwrap();
        let and = a.clone() & b.clone();
        let or = a.clone() | b.clone();
        let xor = a.clone() ^ b.clone();
        for m in 0..8 {
            let av = m & 1 == 1;
            let bv = (m >> 2) & 1 == 1;
            assert_eq!(and.bit(m), av & bv);
            assert_eq!(or.bit(m), av | bv);
            assert_eq!(xor.bit(m), av ^ bv);
        }
    }

    #[test]
    fn not_masks_tail() {
        let f = TruthTable::constant(2, false).unwrap();
        let t = !f;
        assert_eq!(t.words()[0], 0b1111);
        assert_eq!(t.count_ones(), 4);
    }

    #[test]
    fn eval_agrees_with_bit() {
        let tt = TruthTable::from_hex(4, "6996").unwrap();
        for m in 0..16 {
            let assign: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(tt.eval(&assign), tt.bit(m));
        }
    }

    #[test]
    fn cofactor_small_vars() {
        // f = a XOR b: cofactor a=1 is !b, a=0 is b.
        let a = TruthTable::variable(2, 0).unwrap();
        let b = TruthTable::variable(2, 1).unwrap();
        let f = a ^ b.clone();
        assert_eq!(f.cofactor(0, true), !b.clone());
        assert_eq!(f.cofactor(0, false), b);
    }

    #[test]
    fn cofactor_large_vars() {
        // 7-variable function depending on variable 6.
        let v6 = TruthTable::variable(7, 6).unwrap();
        let v0 = TruthTable::variable(7, 0).unwrap();
        let f = v6.clone() & v0.clone();
        assert_eq!(f.cofactor(6, true), v0);
        assert_eq!(f.cofactor(6, false), TruthTable::constant(7, false).unwrap());
    }

    #[test]
    fn support_and_depends_on() {
        let a = TruthTable::variable(4, 0).unwrap();
        let c = TruthTable::variable(4, 2).unwrap();
        let f = a & c;
        assert_eq!(f.support(), vec![0, 2]);
        assert!(f.depends_on(0));
        assert!(!f.depends_on(1));
        assert!(!f.depends_on(3));
    }

    #[test]
    fn flip_input_is_involution() {
        let tt = TruthTable::from_hex(4, "cafe").unwrap();
        for v in 0..4 {
            assert_eq!(tt.flip_input(v).flip_input(v), tt);
        }
    }

    #[test]
    fn flip_input_large_var() {
        let tt = TruthTable::variable(7, 6).unwrap();
        assert_eq!(tt.flip_input(6), !TruthTable::variable(7, 6).unwrap());
    }

    #[test]
    fn permute_identity_and_swap() {
        let tt = TruthTable::from_hex(3, "d8").unwrap();
        assert_eq!(tt.permute(&[0, 1, 2]).unwrap(), tt);
        let swapped = tt.permute(&[1, 0, 2]).unwrap();
        // Swapping twice restores.
        assert_eq!(swapped.permute(&[1, 0, 2]).unwrap(), tt);
        // Semantics: new var 0 reads old var 1.
        for m in 0..8usize {
            let assign: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let old = [assign[1], assign[0], assign[2]];
            assert_eq!(swapped.eval(&assign), tt.eval(&old));
        }
    }

    #[test]
    fn permute_rejects_non_permutations() {
        let tt = TruthTable::constant(3, false).unwrap();
        assert!(tt.permute(&[0, 0, 1]).is_err());
        assert!(tt.permute(&[0, 1]).is_err());
        assert!(tt.permute(&[0, 1, 3]).is_err());
    }

    #[test]
    fn trivial_functions_detected() {
        assert!(TruthTable::constant(3, true).unwrap().is_trivial());
        assert!(TruthTable::constant(3, false).unwrap().is_trivial());
        assert!(TruthTable::variable(3, 1).unwrap().is_trivial());
        assert!((!TruthTable::variable(3, 1).unwrap()).is_trivial());
        let a = TruthTable::variable(3, 0).unwrap();
        let b = TruthTable::variable(3, 1).unwrap();
        assert!(!(a & b).is_trivial());
    }

    #[test]
    fn extend_and_shrink() {
        let a2 = TruthTable::variable(2, 0).unwrap();
        let a4 = a2.extend_to(4).unwrap();
        assert_eq!(a4, TruthTable::variable(4, 0).unwrap());
        assert_eq!(a4.shrink_to(2).unwrap(), a2);
        // Shrinking away a support variable fails.
        let d = TruthTable::variable(4, 3).unwrap();
        assert!(d.shrink_to(2).is_err());
    }

    #[test]
    fn binary_op_arity_mismatch() {
        let a = TruthTable::constant(2, true).unwrap();
        let b = TruthTable::constant(3, true).unwrap();
        assert!(a.binary_op(0b1000, &b).is_err());
    }

    #[test]
    fn from_fn_matches_direct_construction() {
        let maj = TruthTable::from_fn(3, |a| (a[0] as u8 + a[1] as u8 + a[2] as u8) >= 2).unwrap();
        assert_eq!(maj.to_hex(), "e8");
    }

    #[test]
    fn count_ones_examples() {
        assert_eq!(TruthTable::from_hex(4, "8ff8").unwrap().count_ones(), 10);
        assert_eq!(TruthTable::variable(6, 3).unwrap().count_ones(), 32);
    }

    #[test]
    fn too_many_variables_rejected() {
        assert!(TruthTable::constant(MAX_VARS + 1, false).is_err());
        assert!(TruthTable::from_u64(7, 0).is_err());
    }

    #[test]
    fn single_variable_table() {
        let x = TruthTable::variable(1, 0).unwrap();
        assert_eq!(x.words()[0], 0b10);
        assert_eq!(x.to_hex(), "2");
        // One variable, two minterms, one hex digit.
        assert_eq!(TruthTable::from_hex(1, "2").unwrap(), x);
    }

    #[test]
    fn zero_variable_table() {
        let t = TruthTable::constant(0, true).unwrap();
        assert_eq!(t.num_bits(), 1);
        assert!(t.bit(0));
        assert_eq!(t.to_hex(), "1");
        assert!(t.eval(&[]));
    }

    #[test]
    fn swap_inputs_is_a_transposition() {
        let t = TruthTable::from_hex(4, "8ff8").unwrap();
        let mut perm = vec![0usize, 1, 2, 3];
        perm.swap(1, 3);
        assert_eq!(t.swap_inputs(1, 3), t.permute(&perm).unwrap());
        assert_eq!(t.swap_inputs(1, 3).swap_inputs(1, 3), t);
        assert_eq!(t.swap_inputs(2, 2), t);
    }

    #[test]
    fn support_mask_matches_support_list() {
        for (n, hex) in [(4usize, "8ff8"), (4, "00ff"), (3, "e8"), (2, "8")] {
            let t = TruthTable::from_hex(n, hex).unwrap();
            let expected = t.support().into_iter().fold(0u64, |m, v| m | (1 << v));
            assert_eq!(t.support_mask(), expected, "{hex}");
        }
    }

    #[test]
    fn compact_on_matches_scalar_projection() {
        // 0x8ff8 restricted to x3, x1 (in that order), x0 and x2 fixed
        // to 0: the compact table's input k must read vars[k].
        let t = TruthTable::from_hex(4, "8ff8").unwrap();
        let vars = [3usize, 1];
        let compact = t.compact_on(&vars);
        assert_eq!(compact.num_vars(), 2);
        for m in 0..4usize {
            let mut assign = vec![false; 4];
            for (k, &v) in vars.iter().enumerate() {
                assign[v] = (m >> k) & 1 == 1;
            }
            assert_eq!(compact.bit(m), t.eval(&assign), "minterm {m}");
        }
    }

    #[test]
    fn expand_onto_inverts_compact_on() {
        // A function over a scattered variable subset survives the
        // round trip compact → expand, including across the word
        // boundary (7 inputs).
        for (n, vars) in [(4usize, vec![3usize, 1]), (7, vec![6, 0, 4])] {
            let spec = TruthTable::from_fn(n, |assign| {
                assign[vars[0]] ^ (assign[vars[1]] & assign[*vars.last().unwrap()])
            })
            .unwrap();
            let compact = spec.compact_on(&vars);
            assert_eq!(compact.expand_onto(n, &vars), spec, "n={n} vars={vars:?}");
        }
    }
}
