//! Word-level truth-table kernels over raw `u64` buffers.
//!
//! The factorization engine (`stp-synth`) spends its time slicing
//! decomposition charts out of truth tables — per candidate split, per
//! shared assignment. Doing that one scalar `eval` per cell costs
//! `rows × cols × shared` table probes; these kernels do the same work
//! with a constant number of word shuffles and cofactor masks per
//! table, on caller-owned buffers, so the hot loops never touch the
//! heap.
//!
//! All functions operate on a packed LSB-first table of `num_vars`
//! inputs, exactly the [`TruthTable`](crate::TruthTable) word layout:
//! bit `m` of the buffer is the function value at minterm `m`, buffers
//! hold `words_len(num_vars)` words, and for fewer than 6 variables the
//! unused tail bits of word 0 must be zero (every kernel preserves that
//! invariant). The [`TruthTable`] methods `swap_inputs`, `flip_input`,
//! `compact_on`, `expand_onto` and `support_mask` wrap these kernels for
//! callers that prefer the owned API.

/// Masks extracting the positive cofactor of variables 0–5 within one
/// word (the standard "magic numbers" of truth-table manipulation).
pub const VAR_MASK: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A 4-lane wide word: four `u64` table words processed as one unit.
///
/// Every lane operation is a plain per-lane loop over a fixed-size
/// array — the pattern LLVM auto-vectorizes into a single 256-bit (or
/// two 128-bit) register operation on every mainstream target, with a
/// guaranteed scalar fallback elsewhere. No intrinsics, no `cfg`
/// ladders, no new dependencies; the 32-byte alignment keeps loads and
/// stores on vector-register boundaries.
///
/// The kernels below use `W4` to process four packed table words per
/// iteration wherever the word count allows (tables of 8+ variables
/// are always a multiple of four words; smaller tables fall back to
/// the scalar tail loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(align(32))]
pub struct W4(pub [u64; 4]);

impl W4 {
    /// All lanes zero.
    pub const ZERO: W4 = W4([0; 4]);

    /// Broadcasts one word into all four lanes.
    #[inline(always)]
    pub const fn splat(w: u64) -> W4 {
        W4([w, w, w, w])
    }

    /// Loads four consecutive words from `src` (`src.len() >= 4`).
    #[inline(always)]
    pub fn load(src: &[u64]) -> W4 {
        W4([src[0], src[1], src[2], src[3]])
    }

    /// Stores the four lanes into `dst` (`dst.len() >= 4`).
    #[inline(always)]
    pub fn store(self, dst: &mut [u64]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// `true` when any lane has a set bit.
    #[inline(always)]
    pub const fn any(self) -> bool {
        (self.0[0] | self.0[1] | self.0[2] | self.0[3]) != 0
    }

    /// OR-reduction of the four lanes into one word.
    #[inline(always)]
    pub const fn or_lanes(self) -> u64 {
        self.0[0] | self.0[1] | self.0[2] | self.0[3]
    }
}

impl std::ops::BitAnd for W4 {
    type Output = W4;
    #[inline(always)]
    fn bitand(self, rhs: W4) -> W4 {
        let mut out = [0u64; 4];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a & b;
        }
        W4(out)
    }
}

impl std::ops::BitOr for W4 {
    type Output = W4;
    #[inline(always)]
    fn bitor(self, rhs: W4) -> W4 {
        let mut out = [0u64; 4];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a | b;
        }
        W4(out)
    }
}

impl std::ops::BitXor for W4 {
    type Output = W4;
    #[inline(always)]
    fn bitxor(self, rhs: W4) -> W4 {
        let mut out = [0u64; 4];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a ^ b;
        }
        W4(out)
    }
}

impl std::ops::Not for W4 {
    type Output = W4;
    #[inline(always)]
    fn not(self) -> W4 {
        let mut out = [0u64; 4];
        for (o, a) in out.iter_mut().zip(self.0.iter()) {
            *o = !a;
        }
        W4(out)
    }
}

impl std::ops::Shl<u32> for W4 {
    type Output = W4;
    #[inline(always)]
    fn shl(self, s: u32) -> W4 {
        let mut out = [0u64; 4];
        for (o, a) in out.iter_mut().zip(self.0.iter()) {
            *o = a << s;
        }
        W4(out)
    }
}

impl std::ops::Shr<u32> for W4 {
    type Output = W4;
    #[inline(always)]
    fn shr(self, s: u32) -> W4 {
        let mut out = [0u64; 4];
        for (o, a) in out.iter_mut().zip(self.0.iter()) {
            *o = a >> s;
        }
        W4(out)
    }
}

/// Number of `u64` words a `num_vars`-input table occupies.
pub const fn words_len(num_vars: usize) -> usize {
    if num_vars <= 6 {
        1
    } else {
        1 << (num_vars - 6)
    }
}

/// Word `word` of the projection table of input `var`, for tables of
/// at least `var + 1` inputs (tables of fewer than 6 inputs keep only
/// its low `2^n` bits).
pub const fn var_word(var: usize, word: usize) -> u64 {
    if var < 6 {
        VAR_MASK[var]
    } else if (word >> (var - 6)) & 1 == 1 {
        u64::MAX
    } else {
        0
    }
}

/// A 2-input operator given as a 4-bit truth table (`tt2` bit `a + 2b`
/// is `σ(a, b)`), applied bitwise to two table words.
#[inline]
pub const fn lut2(tt2: u8, a: u64, b: u64) -> u64 {
    let mut v = 0;
    if tt2 & 0b0001 != 0 {
        v |= !a & !b;
    }
    if tt2 & 0b0010 != 0 {
        v |= a & !b;
    }
    if tt2 & 0b0100 != 0 {
        v |= !a & b;
    }
    if tt2 & 0b1000 != 0 {
        v |= a & b;
    }
    v
}

/// A mask of the `count` lowest bits (`count ≤ 64`).
pub const fn low_mask(count: usize) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Replaces the table with its `var = 0` cofactor, replicated so `var`
/// becomes a don't-care (same semantics as
/// [`TruthTable::cofactor`](crate::TruthTable::cofactor) with
/// `value = false`).
///
/// # Panics
///
/// Panics if `var >= num_vars` (debug assertion on the buffer length).
pub fn cofactor0_in_place(words: &mut [u64], num_vars: usize, var: usize) {
    assert!(var < num_vars, "variable {var} out of range");
    debug_assert_eq!(words.len(), words_len(num_vars));
    if var < 6 {
        let shift = 1u32 << var;
        let not_mask = !VAR_MASK[var];
        let wide_mask = W4::splat(not_mask);
        let mut chunks = words.chunks_exact_mut(4);
        for chunk in &mut chunks {
            let lo = W4::load(chunk) & wide_mask;
            (lo | (lo << shift)).store(chunk);
        }
        for w in chunks.into_remainder() {
            let lo = *w & not_mask;
            *w = lo | (lo << shift);
        }
    } else {
        // Each odd-numbered block of `stride` words is replaced by the
        // even block before it; even blocks are untouched, so forward
        // copies are safe.
        let stride = 1usize << (var - 6);
        match stride {
            1 => {
                for pair in words.chunks_exact_mut(2) {
                    pair[1] = pair[0];
                }
            }
            2 => {
                for quad in words.chunks_exact_mut(4) {
                    quad[2] = quad[0];
                    quad[3] = quad[1];
                }
            }
            _ => {
                for blocks in words.chunks_exact_mut(2 * stride) {
                    let (src, dst) = blocks.split_at_mut(stride);
                    for (s, d) in src.chunks_exact(4).zip(dst.chunks_exact_mut(4)) {
                        W4::load(s).store(d);
                    }
                }
            }
        }
    }
}

/// Negates input `var` in place (swaps its two cofactors): one masked
/// shift pair per word for `var < 6`, one block swap per word pair
/// above. `words` may hold several tables back to back; each is
/// negated.
///
/// # Panics
///
/// Panics if `var >= num_vars`.
pub fn flip_in_place(words: &mut [u64], num_vars: usize, var: usize) {
    assert!(var < num_vars, "variable {var} out of range");
    debug_assert!(words.len().is_multiple_of(words_len(num_vars)));
    if var < 6 {
        let shift = 1u32 << var;
        let mask = VAR_MASK[var];
        for w in words.iter_mut() {
            *w = ((*w & mask) >> shift) | ((*w & !mask) << shift);
        }
    } else {
        let stride = 1usize << (var - 6);
        for blocks in words.chunks_exact_mut(2 * stride) {
            let (lo, hi) = blocks.split_at_mut(stride);
            lo.swap_with_slice(hi);
        }
    }
}

/// Swaps input variables `a` and `b` in place — one masked delta-swap
/// per word (or word pair), never a per-minterm loop.
///
/// # Panics
///
/// Panics if either variable is `>= num_vars`.
pub fn swap_in_place(words: &mut [u64], num_vars: usize, a: usize, b: usize) {
    assert!(a < num_vars && b < num_vars, "variables ({a}, {b}) out of range");
    debug_assert_eq!(words.len(), words_len(num_vars));
    if a == b {
        return;
    }
    let (i, j) = if a < b { (a, b) } else { (b, a) };
    if j < 6 {
        // Both inside one word: cells with (x_j, x_i) = (1, 0) trade
        // places with (0, 1), a distance of 2^j − 2^i apart.
        let shift = ((1usize << j) - (1usize << i)) as u32;
        let down = VAR_MASK[j] & !VAR_MASK[i];
        let up = !VAR_MASK[j] & VAR_MASK[i];
        let keep = !(down | up);
        let (wd, wu, wk) = (W4::splat(down), W4::splat(up), W4::splat(keep));
        let mut chunks = words.chunks_exact_mut(4);
        for chunk in &mut chunks {
            let w = W4::load(chunk);
            ((w & wk) | ((w & wd) >> shift) | ((w & wu) << shift)).store(chunk);
        }
        for w in chunks.into_remainder() {
            *w = (*w & keep) | ((*w & down) >> shift) | ((*w & up) << shift);
        }
    } else if i < 6 {
        // One in-word variable, one word-index variable: exchange the
        // x_i = 1 half of the low word with the x_i = 0 half of the
        // high word, shifted by 2^i.
        let stride = 1usize << (j - 6);
        let s = (1usize << i) as u32;
        let m = VAR_MASK[i];
        let (wm, wn) = (W4::splat(m), W4::splat(!m));
        for blocks in words.chunks_exact_mut(2 * stride) {
            let (los, his) = blocks.split_at_mut(stride);
            if stride >= 4 {
                for (l4, h4) in los.chunks_exact_mut(4).zip(his.chunks_exact_mut(4)) {
                    let lo = W4::load(l4);
                    let hi = W4::load(h4);
                    ((lo & wn) | ((hi & wn) << s)).store(l4);
                    ((hi & wm) | ((lo & wm) >> s)).store(h4);
                }
            } else {
                for (l, h) in los.iter_mut().zip(his.iter_mut()) {
                    let (lo, hi) = (*l, *h);
                    *l = (lo & !m) | ((hi & !m) << s);
                    *h = (hi & m) | ((lo & m) >> s);
                }
            }
        }
    } else {
        // Both are word-index variables: words whose index has bit
        // `i − 6` set and bit `j − 6` clear trade places with the index
        // that flips both bits. Such indices form runs of `si`
        // consecutive words, so each run swaps as a block.
        let si = 1usize << (i - 6);
        let sj = 1usize << (j - 6);
        let mut idx = 0;
        while idx < words.len() {
            if idx & si != 0 && idx & sj == 0 {
                swap_word_runs(words, idx, idx ^ si ^ sj, si);
            }
            idx += si;
        }
    }
}

/// Swaps the `len` words starting at `a` with the `len` words starting
/// at `b` (`a + len <= b`), four words per iteration when `len` allows.
fn swap_word_runs(words: &mut [u64], a: usize, b: usize, len: usize) {
    debug_assert!(a + len <= b);
    let (head, tail) = words.split_at_mut(b);
    let src = &mut head[a..a + len];
    let dst = &mut tail[..len];
    if len.is_multiple_of(4) {
        for (s4, d4) in src.chunks_exact_mut(4).zip(dst.chunks_exact_mut(4)) {
            let tmp = W4::load(s4);
            W4::load(d4).store(s4);
            tmp.store(d4);
        }
    } else {
        src.swap_with_slice(dst);
    }
}

/// The set of variables the table depends on, as a bitmask (bit `v` set
/// ⇔ the function's two `v`-cofactors differ). Word-level equivalent of
/// [`TruthTable::support`](crate::TruthTable::support), without the
/// `Vec` (and without materializing the cofactors).
pub fn support_mask(words: &[u64], num_vars: usize) -> u64 {
    debug_assert_eq!(words.len(), words_len(num_vars));
    let mut mask = 0u64;
    for (var, &vm) in VAR_MASK.iter().enumerate().take(num_vars.min(6)) {
        let shift = 1u32 << var;
        let zeros = !vm & if num_vars < 6 { low_mask(1 << num_vars) } else { u64::MAX };
        let wz = W4::splat(zeros);
        let mut wide = W4::ZERO;
        let mut chunks = words.chunks_exact(4);
        for chunk in &mut chunks {
            let w = W4::load(chunk);
            wide = wide | (((w >> shift) ^ w) & wz);
        }
        let mut diff = wide.or_lanes();
        for w in chunks.remainder() {
            diff |= ((*w >> shift) ^ *w) & zeros;
        }
        if diff != 0 {
            mask |= 1u64 << var;
        }
    }
    for var in 6..num_vars {
        let stride = 1usize << (var - 6);
        let mut diff = 0u64;
        for blocks in words.chunks_exact(2 * stride) {
            let (los, his) = blocks.split_at(stride);
            if stride >= 4 {
                let mut wide = W4::ZERO;
                for (l4, h4) in los.chunks_exact(4).zip(his.chunks_exact(4)) {
                    wide = wide | (W4::load(l4) ^ W4::load(h4));
                }
                diff |= wide.or_lanes();
            } else {
                for (l, h) in los.iter().zip(his.iter()) {
                    diff |= l ^ h;
                }
            }
        }
        if diff != 0 {
            mask |= 1u64 << var;
        }
    }
    mask
}

/// Computes the transposition sequence that moves `vars[k]` to input
/// position `k` for every `k`, writing `(destination, source)` pairs
/// into `plan` and returning how many swaps are needed (≤ `vars.len()`).
///
/// Applying the swaps front to back performs the reordering; applying
/// them back to front undoes it (each transposition is an involution).
/// The plan is a pure function of `(num_vars, vars)`, so a compaction
/// and the matching expansion agree on the ordering by construction.
///
/// # Panics
///
/// Panics if `vars` repeats a variable or names one `>= num_vars`
/// (`num_vars ≤ 64`).
pub fn front_swap_plan(num_vars: usize, vars: &[usize], plan: &mut [(u8, u8)]) -> usize {
    assert!(num_vars <= 64, "front_swap_plan supports at most 64 variables");
    let mut at = [0u8; 64]; // at[p] = variable currently at position p
    let mut pos = [0u8; 64]; // pos[v] = current position of variable v
    for p in 0..num_vars {
        at[p] = p as u8;
        pos[p] = p as u8;
    }
    let mut seen = 0u64;
    let mut len = 0;
    for (i, &v) in vars.iter().enumerate() {
        assert!(v < num_vars, "variable {v} out of range");
        assert!(seen & (1u64 << v) == 0, "variable {v} listed twice");
        seen |= 1u64 << v;
        let p = pos[v] as usize;
        if p != i {
            plan[len] = (i as u8, p as u8);
            len += 1;
            let displaced = at[i];
            at[i] = v as u8;
            at[p] = displaced;
            pos[v] = i as u8;
            pos[displaced as usize] = p as u8;
        }
    }
    len
}

/// Tiles a `k`-variable table across an `num_vars`-variable buffer
/// (`k ≤ num_vars`): the result equals `compact` on its first `k`
/// inputs and ignores the rest. This is the word-level replication step
/// of operand expansion (the inverse of truncating a table whose upper
/// variables are don't-cares).
pub fn tile_words(compact: &[u64], k: usize, num_vars: usize, out: &mut [u64]) {
    debug_assert!(k <= num_vars);
    debug_assert_eq!(compact.len(), words_len(k));
    debug_assert_eq!(out.len(), words_len(num_vars));
    if k >= 6 {
        let kw = words_len(k);
        match kw {
            1 => splat_word(compact[0], out),
            2 => {
                let pattern = W4([compact[0], compact[1], compact[0], compact[1]]);
                let mut chunks = out.chunks_exact_mut(4);
                for chunk in &mut chunks {
                    pattern.store(chunk);
                }
                for (i, w) in chunks.into_remainder().iter_mut().enumerate() {
                    *w = compact[i % 2];
                }
            }
            _ => {
                for block in out.chunks_exact_mut(kw) {
                    for (s, d) in compact.chunks_exact(4).zip(block.chunks_exact_mut(4)) {
                        W4::load(s).store(d);
                    }
                }
            }
        }
    } else {
        // Double the low 2^k bits until the pattern fills one word (or
        // the whole table, when num_vars < 6), then copy it everywhere.
        let mut w = compact[0] & low_mask(1 << k);
        for j in k..num_vars.min(6) {
            w |= w << (1usize << j);
        }
        splat_word(w, out);
    }
}

/// Fills `out` with copies of `w`, four words per iteration.
fn splat_word(w: u64, out: &mut [u64]) {
    let pattern = W4::splat(w);
    let mut chunks = out.chunks_exact_mut(4);
    for chunk in &mut chunks {
        pattern.store(chunk);
    }
    for slot in chunks.into_remainder() {
        *slot = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TruthTable;

    /// A tiny deterministic LCG — the vendored `rand` is fine too, but
    /// keeping kernel tests self-contained makes them copy-pastable.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn random_table(rng: &mut Lcg, n: usize) -> TruthTable {
        let words = (0..words_len(n)).map(|_| rng.next() << 11 | rng.next()).collect();
        TruthTable::from_words(n, words).unwrap()
    }

    #[test]
    fn swap_matches_permute_across_arities() {
        let mut rng = Lcg(0x5eed_0001);
        for n in 1..=9 {
            for _ in 0..8 {
                let tt = random_table(&mut rng, n);
                let a = (rng.next() as usize) % n;
                let b = (rng.next() as usize) % n;
                let mut words = tt.words().to_vec();
                swap_in_place(&mut words, n, a, b);
                let mut perm: Vec<usize> = (0..n).collect();
                perm.swap(a, b);
                let expected = tt.permute(&perm).unwrap();
                assert_eq!(words, expected.words(), "n={n} swap({a},{b})");
            }
        }
    }

    #[test]
    fn flip_matches_scalar_reference_across_arities() {
        let mut rng = Lcg(0x5eed_0002);
        for n in 1..=9 {
            // Two tables back to back: each must be negated on its own.
            let tables = [random_table(&mut rng, n), random_table(&mut rng, n)];
            for var in 0..n {
                let mut words: Vec<u64> = tables.iter().flat_map(|t| t.words()).copied().collect();
                flip_in_place(&mut words, n, var);
                for (t, got) in tables.iter().zip(words.chunks_exact(words_len(n))) {
                    let expected = TruthTable::from_fn(n, |a| {
                        let m = (0..n).filter(|&i| a[i] != (i == var)).fold(0, |m, i| m | 1 << i);
                        t.bit(m)
                    })
                    .unwrap();
                    assert_eq!(got, expected.words(), "n={n} var={var}");
                }
            }
        }
    }

    #[test]
    fn cofactor0_matches_cofactor_method() {
        let mut rng = Lcg(0x5eed_0002);
        for n in 1..=9 {
            for _ in 0..8 {
                let tt = random_table(&mut rng, n);
                let v = (rng.next() as usize) % n;
                let mut words = tt.words().to_vec();
                cofactor0_in_place(&mut words, n, v);
                assert_eq!(words, tt.cofactor(v, false).words(), "n={n} var={v}");
            }
        }
    }

    #[test]
    fn support_mask_matches_support() {
        let mut rng = Lcg(0x5eed_0003);
        for n in 1..=9 {
            for _ in 0..8 {
                let tt = random_table(&mut rng, n);
                let expected = tt.support().into_iter().fold(0u64, |m, v| m | (1 << v));
                assert_eq!(support_mask(tt.words(), n), expected, "n={n}");
            }
        }
    }

    #[test]
    fn front_swap_plan_brings_vars_to_front() {
        let mut rng = Lcg(0x5eed_0004);
        for n in 2..=9usize {
            for _ in 0..8 {
                let tt = random_table(&mut rng, n);
                // A random subset in random order.
                let mut vars: Vec<usize> = (0..n).filter(|_| rng.next() & 1 == 1).collect();
                if vars.len() >= 2 && rng.next() & 1 == 1 {
                    let last = vars.len() - 1;
                    vars.swap(0, last);
                }
                let mut plan = [(0u8, 0u8); 64];
                let len = front_swap_plan(n, &vars, &mut plan);
                assert!(len <= vars.len());
                let mut words = tt.words().to_vec();
                for &(i, p) in &plan[..len] {
                    swap_in_place(&mut words, n, i as usize, p as usize);
                }
                let got = TruthTable::from_words(n, words.clone()).unwrap();
                // Position k of the reordered table must read vars[k].
                for m in 0..(1usize << n) {
                    let assign: Vec<bool> = (0..n).map(|b| (m >> b) & 1 == 1).collect();
                    let mut orig = vec![false; n];
                    let mut used = vec![false; n];
                    for (k, &v) in vars.iter().enumerate() {
                        orig[v] = assign[k];
                        used[v] = true;
                    }
                    // Unlisted variables land on the remaining
                    // positions; their values do not matter for the
                    // check as long as we mirror the plan's placement —
                    // reverse the swaps on the index instead.
                    let mut idx = m;
                    for &(i, p) in plan[..len].iter().rev() {
                        let (bi, bp) = ((idx >> i) & 1, (idx >> p) & 1);
                        idx = (idx & !((1 << i) | (1 << p))) | (bp << i) | (bi << p);
                    }
                    assert_eq!(got.bit(m), tt.bit(idx), "n={n} vars={vars:?} m={m}");
                }
                // Undoing the plan restores the original table.
                for &(i, p) in plan[..len].iter().rev() {
                    swap_in_place(&mut words, n, i as usize, p as usize);
                }
                assert_eq!(words, tt.words());
            }
        }
    }

    /// Bit-level scalar swap reference: bit `m` of the result reads bit
    /// `m` with positions `a` and `b` exchanged. Independent of every
    /// word kernel (including `TruthTable::swap_inputs`, which wraps
    /// `swap_in_place`).
    fn swap_reference(tt: &TruthTable, a: usize, b: usize) -> Vec<u64> {
        let n = tt.num_vars();
        let mut out = vec![0u64; words_len(n)];
        for m in 0..(1usize << n) {
            let (ba, bb) = ((m >> a) & 1, (m >> b) & 1);
            let src = (m & !((1 << a) | (1 << b))) | (bb << a) | (ba << b);
            if tt.bit(src) {
                out[m / 64] |= 1u64 << (m % 64);
            }
        }
        out
    }

    #[test]
    fn fuzz_swap_multi_word_matches_scalar_reference() {
        let mut rng = Lcg(0x5eed_0011);
        for n in 7..=12usize {
            for _ in 0..6 {
                let tt = random_table(&mut rng, n);
                let a = (rng.next() as usize) % n;
                let b = (rng.next() as usize) % n;
                let mut words = tt.words().to_vec();
                swap_in_place(&mut words, n, a, b);
                assert_eq!(words, swap_reference(&tt, a, b), "n={n} swap({a},{b})");
            }
        }
    }

    /// The cross-word branch (`i < 6 ≤ j`) and the word-permutation
    /// branch (`6 ≤ i < j`), exhaustively over every qualifying pair —
    /// the two multi-word code paths the random fuzz under-samples.
    #[test]
    fn swap_cross_word_and_word_permutation_branches_exhaustive() {
        let mut rng = Lcg(0x5eed_0012);
        for n in 7..=12usize {
            let tt = random_table(&mut rng, n);
            for j in 6..n {
                for i in 0..j {
                    let mut words = tt.words().to_vec();
                    swap_in_place(&mut words, n, i, j);
                    assert_eq!(words, swap_reference(&tt, i, j), "n={n} swap({i},{j})");
                    // The swap is an involution.
                    swap_in_place(&mut words, n, j, i);
                    assert_eq!(words, tt.words(), "n={n} swap({i},{j}) twice");
                }
            }
        }
    }

    #[test]
    fn fuzz_cofactor0_multi_word_matches_scalar_reference() {
        let mut rng = Lcg(0x5eed_0013);
        for n in 7..=12usize {
            for _ in 0..4 {
                let tt = random_table(&mut rng, n);
                for v in 0..n {
                    let mut words = tt.words().to_vec();
                    cofactor0_in_place(&mut words, n, v);
                    let got = TruthTable::from_words(n, words).unwrap();
                    for m in 0..(1usize << n) {
                        assert_eq!(got.bit(m), tt.bit(m & !(1 << v)), "n={n} var={v} m={m}");
                    }
                }
            }
        }
    }

    #[test]
    fn fuzz_support_mask_multi_word_matches_scalar_reference() {
        let mut rng = Lcg(0x5eed_0014);
        for n in 7..=12usize {
            for round in 0..6 {
                let mut tt = random_table(&mut rng, n);
                if round % 2 == 0 {
                    // Force some variables out of the support so the
                    // zero-diff side of every branch is exercised too.
                    for v in 0..n {
                        if rng.next() & 3 == 0 {
                            tt = tt.cofactor(v, false);
                        }
                    }
                }
                let mut expected = 0u64;
                for v in 0..n {
                    let flip = 1usize << v;
                    if (0..(1usize << n)).any(|m| tt.bit(m) != tt.bit(m ^ flip)) {
                        expected |= 1u64 << v;
                    }
                }
                assert_eq!(support_mask(tt.words(), n), expected, "n={n} round={round}");
            }
        }
    }

    #[test]
    fn fuzz_tile_words_multi_word_matches_scalar_reference() {
        let mut rng = Lcg(0x5eed_0015);
        for n in 7..=12usize {
            for k in 0..=n.min(9) {
                let small = random_table(&mut rng, k);
                let mut out = vec![0u64; words_len(n)];
                tile_words(small.words(), k, n, &mut out);
                let big = TruthTable::from_words(n, out).unwrap();
                for m in 0..(1usize << n) {
                    assert_eq!(big.bit(m), small.bit(m & ((1 << k) - 1)), "k={k} n={n} m={m}");
                }
            }
        }
    }

    #[test]
    fn w4_lane_ops_match_scalar() {
        let mut rng = Lcg(0x5eed_0016);
        for _ in 0..64 {
            let a: [u64; 4] = std::array::from_fn(|_| rng.next() << 11 | rng.next());
            let b: [u64; 4] = std::array::from_fn(|_| rng.next() << 11 | rng.next());
            let s = (rng.next() % 64) as u32;
            let (wa, wb) = (W4(a), W4(b));
            for lane in 0..4 {
                assert_eq!((wa & wb).0[lane], a[lane] & b[lane]);
                assert_eq!((wa | wb).0[lane], a[lane] | b[lane]);
                assert_eq!((wa ^ wb).0[lane], a[lane] ^ b[lane]);
                assert_eq!((!wa).0[lane], !a[lane]);
                assert_eq!((wa << s).0[lane], a[lane] << s);
                assert_eq!((wa >> s).0[lane], a[lane] >> s);
            }
            assert_eq!(wa.or_lanes(), a[0] | a[1] | a[2] | a[3]);
            assert_eq!(wa.any(), a.iter().any(|&w| w != 0));
            assert_eq!(W4::splat(a[0]).0, [a[0]; 4]);
        }
        assert!(!W4::ZERO.any());
    }

    #[test]
    fn tile_replicates_low_variables() {
        let mut rng = Lcg(0x5eed_0005);
        for k in 0..=8usize {
            for n in k..=9usize {
                let small = random_table(&mut rng, k);
                let mut out = vec![0u64; words_len(n)];
                tile_words(small.words(), k, n, &mut out);
                let big = TruthTable::from_words(n, out).unwrap();
                for m in 0..(1usize << n) {
                    assert_eq!(big.bit(m), small.bit(m & ((1 << k) - 1)), "k={k} n={n} m={m}");
                }
            }
        }
    }
}
