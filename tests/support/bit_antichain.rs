//! The absorbed product that `ilogic_temporal::dnf::store::ConditionStore`
//! computed before its size-ordered, indexed kernel, kept as a test-only
//! reference: implicants are flat bitsets over the atom universe, and every
//! candidate is offered to a `BitAntichain` that scans each live member —
//! `member ⊆ candidate` drops the candidate, `candidate ⊂ member` kills the
//! member.  That scan is quadratic in the antichain width, which is what
//! made the wide products of the `[ => Q ] []P` condition fixpoint slow.
//!
//! `crates/temporal/tests/dnf_store.rs` checks the store's `and`/`or`
//! against [`and_reference`]/[`or_reference`], and the `condition_fixpoint`
//! bench includes this file through `#[path]` to gate the store's speedup
//! over it.  It is not part of any library.

#![allow(dead_code)]

/// The absorbed conjunction of two antichains given as sorted atom lists:
/// the minimal elements of `{ a ∪ b | a ∈ lhs, b ∈ rhs }`, in no particular
/// order.  Mirrors the old `ConditionStore::and` step for step: rows from
/// the wider operand, both sides shortest-first, row collapse, per-row
/// minimal residuals, and one streaming antichain for the result.
pub fn and_reference(lhs: &[Vec<u32>], rhs: &[Vec<u32>]) -> Vec<Vec<u32>> {
    if lhs.is_empty() || rhs.is_empty() {
        return Vec::new();
    }
    let (rows, cols) = if lhs.len() >= rhs.len() {
        (by_len(lhs), by_len(rhs))
    } else {
        (by_len(rhs), by_len(lhs))
    };
    let words = bit_words(lhs.iter().chain(rhs));
    let mut col_bits = vec![0u64; words * cols.len()];
    for (c, ib) in cols.iter().enumerate() {
        implicant_bits(ib, &mut col_bits[c * words..(c + 1) * words]);
    }
    let mut builder = BitAntichain::new(words);
    let mut residuals = BitAntichain::new(words);
    let mut row_bits = vec![0u64; words];
    let mut scratch = vec![0u64; words];
    'rows: for ia in &rows {
        implicant_bits(ia, &mut row_bits);
        // A member already ⊆ ia subsumes every union of this row.
        if builder.contains_subset_of(&row_bits) {
            continue;
        }
        residuals.clear();
        for c in 0..cols.len() {
            let mut empty = true;
            for (w, &col_word) in col_bits[c * words..(c + 1) * words].iter().enumerate() {
                scratch[w] = col_word & !row_bits[w];
                empty &= scratch[w] == 0;
            }
            if empty {
                builder.offer(&row_bits);
                continue 'rows;
            }
            residuals.offer(&scratch);
        }
        for r in 0..residuals.len() {
            for (w, &res_word) in residuals.row(r).iter().enumerate() {
                scratch[w] = row_bits[w] | res_word;
            }
            builder.offer(&scratch);
        }
    }
    (0..builder.len()).map(|m| atoms_of_bits(builder.row(m))).collect()
}

/// The absorbed disjunction of two antichains given as sorted atom lists,
/// in no particular order (the old `ConditionStore::or`).
pub fn or_reference(lhs: &[Vec<u32>], rhs: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut candidates = by_len(lhs);
    candidates.extend(by_len(rhs));
    candidates.sort_by(|x, y| (x.len(), x).cmp(&(y.len(), y)));
    candidates.dedup();
    let words = bit_words(candidates.iter());
    let mut builder = BitAntichain::new(words);
    let mut bits = vec![0u64; words];
    for imp in &candidates {
        implicant_bits(imp, &mut bits);
        builder.offer(&bits);
    }
    (0..builder.len()).map(|m| atoms_of_bits(builder.row(m))).collect()
}

/// The implicants shortest-first (then lexicographically).
fn by_len(implicants: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut sorted = implicants.to_vec();
    sorted.sort_by(|x, y| (x.len(), x).cmp(&(y.len(), y)));
    sorted
}

/// Number of `u64` words a bitset over every atom of `implicants` needs.
fn bit_words<'a>(implicants: impl Iterator<Item = &'a Vec<u32>>) -> usize {
    let bound = implicants.flat_map(|imp| imp.last()).map(|&atom| atom as usize + 1).max();
    bound.unwrap_or(0).div_ceil(64).max(1)
}

/// Writes the atom set `atoms` as a bitset into `out`.
fn implicant_bits(atoms: &[u32], out: &mut [u64]) {
    out.fill(0);
    for &atom in atoms {
        out[(atom / 64) as usize] |= 1u64 << (atom % 64);
    }
}

/// The sorted atom list behind a bitset row.
fn atoms_of_bits(bits: &[u64]) -> Vec<u32> {
    let mut atoms = Vec::new();
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let bit = rest.trailing_zeros();
            atoms.push(w as u32 * 64 + bit);
            rest &= rest - 1;
        }
    }
    atoms
}

/// Streaming minimal-antichain builder over implicant bitsets, with two-way
/// absorption.
struct BitAntichain {
    words: usize,
    /// Flattened live member rows: member `m` occupies
    /// `rows[m * words .. (m + 1) * words]`.
    rows: Vec<u64>,
}

impl BitAntichain {
    fn new(words: usize) -> BitAntichain {
        BitAntichain { words: words.max(1), rows: Vec::new() }
    }

    /// Number of live members.
    fn len(&self) -> usize {
        self.rows.len() / self.words
    }

    /// Empties the builder, keeping its allocations.
    fn clear(&mut self) {
        self.rows.clear();
    }

    /// The bitset row of member `m`.
    fn row(&self, m: usize) -> &[u64] {
        &self.rows[m * self.words..(m + 1) * self.words]
    }

    /// `true` iff some live member is a subset of `candidate`.
    fn contains_subset_of(&self, candidate: &[u64]) -> bool {
        (0..self.len()).any(|m| self.row(m).iter().zip(candidate).all(|(&mw, &cw)| mw & !cw == 0))
    }

    /// Offers a candidate implicant: inserted unless a live member subsumes
    /// it; live members it strictly shrinks are killed.
    fn offer(&mut self, candidate: &[u64]) {
        let mut m = 0;
        while m < self.len() {
            let row = &self.rows[m * self.words..(m + 1) * self.words];
            let mut member_minus_candidate = 0u64;
            let mut candidate_minus_member = 0u64;
            for (&mw, &cw) in row.iter().zip(candidate) {
                member_minus_candidate |= mw & !cw;
                candidate_minus_member |= cw & !mw;
                if member_minus_candidate != 0 && candidate_minus_member != 0 {
                    break;
                }
            }
            if member_minus_candidate == 0 {
                // member ⊆ candidate (equality included): drop the candidate.
                return;
            }
            if candidate_minus_member == 0 {
                // candidate ⊂ member: kill the member (swap-remove its row;
                // `m` is re-examined with the swapped-in row).
                let last = self.len() - 1;
                if m != last {
                    let (head, tail) = self.rows.split_at_mut(last * self.words);
                    head[m * self.words..(m + 1) * self.words].copy_from_slice(&tail[..self.words]);
                }
                self.rows.truncate(last * self.words);
                continue;
            }
            m += 1;
        }
        self.rows.extend_from_slice(candidate);
    }
}
