//! Internal section state and the §4.2 relaxation pass.
//!
//! "After code layout has been performed, a bespoke linker relaxation
//! pass removes fall-through branches. Additionally it shrinks branch
//! instructions where the offset can be encoded in fewer bytes."
//!
//! Only sections emitted with basic block sections are `relaxable`:
//! every control transfer in them carries a relocation, so the linker
//! may move bytes freely while keeping the block map coherent.

use crate::error::LinkError;
use propeller_codegen::isa::{fits_short, op};
use propeller_obj::{RelocKind, Section, SectionKind};
use std::collections::HashMap;

/// The global symbol table: name (borrowed from the inputs) to
/// `(section index, offset)`.
pub(crate) type SymTab<'a> = HashMap<&'a str, (usize, u32)>;

/// A branch site inside a relaxable section.
#[derive(Clone, Debug)]
pub(crate) struct Site<'a> {
    /// Offset of the instruction start (original, pre-relaxation).
    pub inst_start: u32,
    /// Original encoded length (6 for cond, 5 for jmp).
    pub orig_len: u32,
    /// Conditional branch (`true`) or unconditional jump (`false`).
    pub cond: bool,
    /// Target symbol.
    pub symbol: &'a str,
    /// Target addend (block offset within the target section).
    pub addend: i64,
    /// Current form decision.
    pub state: SiteState,
}

/// The relaxation state of one branch site.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum SiteState {
    /// Long form (as emitted).
    Long,
    /// Shrunk to the short form.
    Short,
    /// Deleted (redundant fall-through jump).
    Deleted,
}

impl Site<'_> {
    /// Current encoded length under `state`.
    pub fn cur_len(&self) -> u32 {
        match self.state {
            SiteState::Long => self.orig_len,
            SiteState::Short => 2,
            SiteState::Deleted => 0,
        }
    }

    /// Bytes saved relative to the original encoding.
    pub fn savings(&self) -> u32 {
        self.orig_len - self.cur_len()
    }

    /// One past the last original byte of the instruction.
    pub fn end(&self) -> u32 {
        self.inst_start + self.orig_len
    }
}

/// A section being linked: the borrowed input section plus its
/// relaxation state.
#[derive(Clone, Debug)]
pub(crate) struct Sec<'a> {
    /// Index of the owning input object.
    pub obj_idx: usize,
    /// The input section (bytes, relocations, name, kind, alignment).
    pub section: &'a Section,
    /// Parsed branch sites (relaxable sections only), sorted by
    /// `inst_start` and non-overlapping.
    sites: Vec<Site<'a>>,
    /// The offset table: for every site that currently saves bytes, in
    /// order, its original end offset and the bytes saved by it and all
    /// sites before it. Rebuilt whenever a site state changes.
    saved: Vec<(u32, u32)>,
    /// Assigned virtual address.
    pub addr: u64,
}

impl<'a> Sec<'a> {
    /// A section with no branch sites, not yet placed.
    pub fn new(obj_idx: usize, section: &'a Section) -> Self {
        Sec {
            obj_idx,
            section,
            sites: Vec::new(),
            saved: Vec::new(),
            addr: 0,
        }
    }

    /// The branch sites, sorted by `inst_start`.
    pub fn sites(&self) -> &[Site<'a>] {
        &self.sites
    }

    /// Installs the section's branch sites (from [`parse_sites`]).
    pub fn set_sites(&mut self, sites: Vec<Site<'a>>) {
        self.sites = sites;
        self.rebuild_offsets();
    }

    /// Sets the state of each `(site index, state)` pair, then rebuilds
    /// the offset table once.
    pub fn update_states(&mut self, updates: impl IntoIterator<Item = (usize, SiteState)>) {
        for (k, state) in updates {
            self.sites[k].state = state;
        }
        self.rebuild_offsets();
    }

    fn rebuild_offsets(&mut self) {
        self.saved.clear();
        let mut total = 0u32;
        for site in &self.sites {
            let s = site.savings();
            if s > 0 {
                total += s;
                self.saved.push((site.end(), total));
            }
        }
    }

    /// Bytes saved by every site.
    pub fn total_saved(&self) -> u32 {
        self.saved.last().map_or(0, |&(_, total)| total)
    }

    /// Maps an original offset to its post-relaxation offset: every site
    /// that ends at or before `orig` moves it down by its savings.
    pub fn new_offset(&self, orig: u32) -> u32 {
        let k = self.saved.partition_point(|&(end, _)| end <= orig);
        orig - k.checked_sub(1).map_or(0, |i| self.saved[i].1)
    }

    /// Final size after relaxation.
    pub fn final_size(&self) -> u32 {
        self.new_offset(self.section.bytes.len() as u32)
    }

    /// Whether `site_idx` is the final instruction of the section (the
    /// only position where a fall-through jump can be deleted).
    pub fn is_tail(&self, site_idx: usize) -> bool {
        let s = &self.sites[site_idx];
        !s.cond && s.end() == self.section.bytes.len() as u32
    }
}

/// Parses branch sites out of a relaxable section's relocations.
///
/// The instruction form is recovered from the bytes preceding the
/// relocated field: a `JMP_LONG` opcode immediately precedes the field
/// for jumps; a `BR_LONG` opcode two bytes before (with a zero condition
/// byte between) identifies conditional branches.
pub(crate) fn parse_sites(section: &Section) -> Result<Vec<Site<'_>>, LinkError> {
    let bad = |detail: String| LinkError::BadMetadata {
        object: section.name.clone(),
        detail,
    };
    let mut sites = Vec::new();
    for r in &section.relocs {
        if r.kind != RelocKind::BranchPc32 {
            continue;
        }
        let off = r.offset as usize;
        // A field running past the section would make the opcode peeks
        // below (or the emitter) index out of bounds — corrupt metadata
        // must surface as a typed error, not a panic.
        if off + r.kind.width() > section.bytes.len() {
            return Err(bad(format!(
                "branch relocation at {} points outside the {}-byte section",
                r.offset,
                section.bytes.len()
            )));
        }
        // In-bounds by the check above: `off - 1`/`off - 2` < `off`
        // < `bytes.len()`.
        let (inst_start, orig_len, cond) = if off >= 1 && section.bytes[off - 1] == op::JMP_LONG {
            (r.offset - 1, 5, false)
        } else if off >= 2 && section.bytes[off - 2] == op::BR_LONG {
            (r.offset - 2, 6, true)
        } else {
            return Err(bad(format!(
                "branch relocation at {} has no branch opcode",
                r.offset
            )));
        };
        sites.push(Site {
            inst_start,
            orig_len,
            cond,
            symbol: &r.symbol,
            addend: r.addend,
            state: SiteState::Long,
        });
    }
    sites.sort_by_key(|s| s.inst_start);
    if let Some(w) = sites.windows(2).find(|w| w[1].inst_start < w[0].end()) {
        return Err(bad(format!(
            "branch sites at {} and {} overlap",
            w[0].inst_start, w[1].inst_start
        )));
    }
    Ok(sites)
}

/// Assigns addresses to text sections in `text_order`, then to rodata.
/// Returns one past the last text byte.
pub(crate) fn assign_addresses(secs: &mut [Sec], text_order: &[usize], base: u64) -> u64 {
    let mut cursor = base;
    for &i in text_order {
        let align = secs[i].section.align.max(1) as u64;
        cursor = cursor.div_ceil(align) * align;
        secs[i].addr = cursor;
        cursor += secs[i].final_size() as u64;
    }
    let text_end = cursor;
    for s in secs.iter_mut() {
        if s.section.kind == SectionKind::RoData {
            cursor = cursor.div_ceil(16) * 16;
            s.addr = cursor;
            cursor += s.section.bytes.len() as u64;
        }
    }
    text_end
}

/// Resolves `symbol + addend` to a final virtual address.
pub(crate) fn resolve(
    secs: &[Sec],
    symtab: &SymTab,
    symbol: &str,
    addend: i64,
    object: &str,
) -> Result<u64, LinkError> {
    let &(sec_idx, sym_off) = symtab.get(symbol).ok_or_else(|| LinkError::UndefinedSymbol {
        symbol: symbol.to_string(),
        object: object.to_string(),
    })?;
    let sec = &secs[sec_idx];
    let orig = sym_off as i64 + addend;
    debug_assert!(orig >= 0);
    Ok(sec.addr + sec.new_offset(orig as u32) as u64)
}

/// Runs the relaxation fixpoint: fall-through jump deletion plus branch
/// shrinking. Returns `(deleted, shrunk, iterations)` — the counts plus
/// how many Jacobi sweeps the fixpoint took.
///
/// Decisions are recomputed from scratch each iteration against the
/// previous iteration's addresses (Jacobi style) until stable, then
/// verified; if the loop fails to stabilize or verify, the pass falls
/// back to the always-correct all-long, no-deletion state.
pub(crate) fn relax(
    secs: &mut [Sec],
    text_order: &[usize],
    symtab: &SymTab,
    base: u64,
) -> Result<(u64, u64, u64), LinkError> {
    const MAX_ITERS: usize = 64;
    // Identify, per text-order position, which section follows.
    let next_in_order: HashMap<usize, usize> = text_order
        .windows(2)
        .map(|w| (w[0], w[1]))
        .collect();

    let mut stable = false;
    let mut iters = 0u64;
    for _ in 0..MAX_ITERS {
        iters += 1;
        assign_addresses(secs, text_order, base);
        // Compute fresh decisions against current addresses.
        let mut new_states: Vec<(usize, usize, SiteState)> = Vec::new();
        for &si in text_order {
            let sec = &secs[si];
            if !sec.section.relaxable {
                continue;
            }
            for (k, site) in sec.sites().iter().enumerate() {
                let target = resolve(secs, symtab, site.symbol, site.addend, &sec.section.name)?;
                let state = if sec.is_tail(k)
                    && tail_deletable(secs, symtab, si, k, next_in_order.get(&si).copied())
                {
                    SiteState::Deleted
                } else {
                    let site_addr = sec.addr + sec.new_offset(site.inst_start) as u64;
                    let disp = target as i64 - (site_addr as i64 + 2);
                    if fits_short(disp) {
                        SiteState::Short
                    } else {
                        SiteState::Long
                    }
                };
                if state != site.state {
                    new_states.push((si, k, state));
                }
            }
        }
        if new_states.is_empty() {
            stable = true;
            break;
        }
        // Updates arrive grouped by section: one table rebuild each.
        for group in new_states.chunk_by(|a, b| a.0 == b.0) {
            secs[group[0].0].update_states(group.iter().map(|&(_, k, st)| (k, st)));
        }
    }

    if stable {
        assign_addresses(secs, text_order, base);
        if verify(secs, text_order, symtab, &next_in_order)? {
            let mut deleted = 0;
            let mut shrunk = 0;
            for s in secs.iter() {
                for site in s.sites() {
                    match site.state {
                        SiteState::Deleted => deleted += 1,
                        SiteState::Short => shrunk += 1,
                        SiteState::Long => {}
                    }
                }
            }
            return Ok((deleted, shrunk, iters));
        }
    }
    // Fallback: no relaxation (always correct).
    for s in secs.iter_mut() {
        let n = s.sites().len();
        s.update_states((0..n).map(|k| (k, SiteState::Long)));
    }
    assign_addresses(secs, text_order, base);
    Ok((0, 0, iters))
}

/// A tail jump is deletable when control would reach its target by
/// simply falling off the end of the section: the target must be the
/// first byte of the section that immediately follows in the layout,
/// and no alignment padding may separate the two.
///
/// The check is structural (next-section identity plus a zero-gap
/// alignment condition) rather than comparing addresses, because the
/// target's address itself shifts when the jump is deleted.
fn tail_deletable(
    secs: &[Sec],
    symtab: &SymTab,
    sec_idx: usize,
    site_idx: usize,
    next_idx: Option<usize>,
) -> bool {
    let Some(ni) = next_idx else {
        return false;
    };
    let sec = &secs[sec_idx];
    let site = &sec.sites()[site_idx];
    let Some(&(tsec_idx, sym_off)) = symtab.get(site.symbol) else {
        return false;
    };
    if tsec_idx != ni {
        return false;
    }
    let tsec = &secs[ni];
    let orig_target = sym_off as i64 + site.addend;
    if orig_target < 0 || tsec.new_offset(orig_target as u32) != 0 {
        return false;
    }
    // End address of this section assuming the tail jump is deleted:
    // every other site's current savings apply, plus this site's full
    // length. The next section must start exactly there (no padding).
    let saved = sec.total_saved() - site.savings();
    let end = sec.addr + (sec.section.bytes.len() as u32 - saved - site.orig_len) as u64;
    end.is_multiple_of(tsec.section.align.max(1) as u64)
}

/// Checks every decision against final addresses.
fn verify(
    secs: &[Sec],
    text_order: &[usize],
    symtab: &SymTab,
    next_in_order: &HashMap<usize, usize>,
) -> Result<bool, LinkError> {
    for &si in text_order {
        let sec = &secs[si];
        if !sec.section.relaxable {
            continue;
        }
        for (k, site) in sec.sites().iter().enumerate() {
            let target = resolve(secs, symtab, site.symbol, site.addend, &sec.section.name)?;
            match site.state {
                SiteState::Deleted => {
                    let ok = sec.is_tail(k)
                        && tail_deletable(secs, symtab, si, k, next_in_order.get(&si).copied());
                    if !ok {
                        return Ok(false);
                    }
                }
                SiteState::Short => {
                    let site_addr = sec.addr + sec.new_offset(site.inst_start) as u64;
                    let disp = target as i64 - (site_addr as i64 + 2);
                    if !fits_short(disp) {
                        return Ok(false);
                    }
                }
                SiteState::Long => {}
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use propeller_obj::Reloc;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn text(size: u32) -> Section {
        let mut s = Section::new(".text.t", SectionKind::Text, vec![0; size as usize]);
        s.align = 1;
        s.relaxable = true;
        s
    }

    fn sec_with_sites<'a>(section: &'a Section, sites: Vec<Site<'a>>) -> Sec<'a> {
        let mut s = Sec::new(0, section);
        s.set_sites(sites);
        s
    }

    fn jmp_site(inst_start: u32, state: SiteState) -> Site<'static> {
        Site {
            inst_start,
            orig_len: 5,
            cond: false,
            symbol: "x",
            addend: 0,
            state,
        }
    }

    /// The definition the offset table replaces: a linear prefix scan
    /// over the sites. Kept as the reference for the equivalence test.
    fn linear_new_offset(sites: &[Site], orig: u32) -> u32 {
        let saved: u32 = sites
            .iter()
            .take_while(|s| s.inst_start + s.orig_len <= orig)
            .map(Site::savings)
            .sum();
        orig - saved
    }

    #[test]
    fn new_offset_accounts_for_savings() {
        let section = text(20);
        let mut s = sec_with_sites(&section, vec![jmp_site(5, SiteState::Short)]);
        // Site at [5,10) shrunk to 2 bytes: savings 3.
        assert_eq!(s.new_offset(0), 0);
        assert_eq!(s.new_offset(5), 5);
        assert_eq!(s.new_offset(10), 7);
        assert_eq!(s.new_offset(20), 17);
        assert_eq!(s.final_size(), 17);
        s.update_states([(0, SiteState::Deleted)]);
        assert_eq!(s.final_size(), 15);
        s.update_states([(0, SiteState::Long)]);
        assert_eq!(s.final_size(), 20);
    }

    #[test]
    fn offset_table_matches_linear_scan() {
        const STATES: [SiteState; 3] = [SiteState::Long, SiteState::Short, SiteState::Deleted];
        let mut rng = StdRng::seed_from_u64(0x0FF5_E7AB);
        for _ in 0..300 {
            // A random layout: gaps of plain code between 5-byte jumps
            // and 6-byte conditional branches, in random states.
            let mut sites = Vec::new();
            let mut cursor = 0u32;
            for _ in 0..rng.gen_range(0..12usize) {
                cursor += rng.gen_range(0..9u32);
                let cond = rng.gen_bool(0.5);
                let orig_len = if cond { 6 } else { 5 };
                sites.push(Site {
                    inst_start: cursor,
                    orig_len,
                    cond,
                    symbol: "x",
                    addend: 0,
                    state: STATES[rng.gen_range(0..3usize)],
                });
                cursor += orig_len;
            }
            let section = text(cursor + rng.gen_range(0..9u32));
            let len = section.bytes.len() as u32;
            let mut sec = sec_with_sites(&section, sites);
            for round in 0..3 {
                for orig in 0..=len {
                    assert_eq!(
                        sec.new_offset(orig),
                        linear_new_offset(sec.sites(), orig),
                        "offset {orig} of {len}, round {round}"
                    );
                }
                assert_eq!(sec.final_size(), linear_new_offset(sec.sites(), len));
                // Change some states; the table must follow.
                let mut updates = Vec::new();
                for k in 0..sec.sites().len() {
                    if rng.gen_bool(0.4) {
                        updates.push((k, STATES[rng.gen_range(0..3usize)]));
                    }
                }
                sec.update_states(updates);
            }
        }
    }

    #[test]
    fn tail_detection() {
        let section = text(20);
        let s = sec_with_sites(&section, vec![jmp_site(15, SiteState::Long)]);
        assert!(s.is_tail(0));
        let s = sec_with_sites(&section, vec![jmp_site(5, SiteState::Long)]);
        assert!(!s.is_tail(0));
    }

    #[test]
    fn parse_sites_recovers_forms() {
        let mut bytes = vec![op::ALU, 0, 0];
        bytes.extend_from_slice(&[op::BR_LONG, 0, 0, 0, 0, 0]); // cond at 3
        bytes.extend_from_slice(&[op::JMP_LONG, 0, 0, 0, 0]); // jmp at 9
        let mut sec = Section::new(".text.x", SectionKind::Text, bytes);
        sec.relocs.push(Reloc::new(5, RelocKind::BranchPc32, "a", 0));
        sec.relocs.push(Reloc::new(10, RelocKind::BranchPc32, "b", 4));
        sec.relocs.push(Reloc::new(4, RelocKind::CallPc32, "c", 0)); // ignored
        let sites = parse_sites(&sec).unwrap();
        assert_eq!(sites.len(), 2);
        assert!(sites[0].cond);
        assert_eq!(sites[0].inst_start, 3);
        assert!(!sites[1].cond);
        assert_eq!(sites[1].inst_start, 9);
        assert_eq!(sites[1].addend, 4);
    }

    #[test]
    fn parse_sites_rejects_garbage() {
        let mut sec = Section::new(".text.x", SectionKind::Text, vec![0u8; 8]);
        sec.relocs.push(Reloc::new(4, RelocKind::BranchPc32, "a", 0));
        assert!(matches!(
            parse_sites(&sec),
            Err(LinkError::BadMetadata { .. })
        ));
    }

    #[test]
    fn parse_sites_rejects_out_of_bounds_reloc_without_panicking() {
        // A relocation offset past the section bytes used to index out
        // of bounds; it must come back as typed corrupt-metadata.
        for off in [5u32, 9, 100, u32::MAX] {
            let mut sec = Section::new(".text.x", SectionKind::Text, vec![0u8; 8]);
            sec.relocs.push(Reloc::new(off, RelocKind::BranchPc32, "a", 0));
            let err = parse_sites(&sec).unwrap_err();
            match err {
                LinkError::BadMetadata { detail, .. } => {
                    assert!(detail.contains("outside"), "{detail}");
                }
                other => panic!("expected BadMetadata, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_sites_rejects_overlapping_sites() {
        // Two jumps claimed at 0 and 3: the second starts inside the first.
        let mut bytes = vec![op::JMP_LONG, 0, 0, op::JMP_LONG, 0, 0, 0, 0];
        bytes.resize(10, 0);
        let mut sec = Section::new(".text.x", SectionKind::Text, bytes);
        sec.relocs
            .push(Reloc::new(1, RelocKind::BranchPc32, "a", 0));
        sec.relocs
            .push(Reloc::new(4, RelocKind::BranchPc32, "b", 0));
        match parse_sites(&sec).unwrap_err() {
            LinkError::BadMetadata { detail, .. } => {
                assert!(detail.contains("overlap"), "{detail}");
            }
            other => panic!("expected BadMetadata, got {other:?}"),
        }
    }

    #[test]
    fn assign_addresses_respects_alignment() {
        let first = text(10);
        let mut second = text(5);
        second.align = 16;
        let mut secs = vec![Sec::new(0, &first), Sec::new(0, &second)];
        let end = assign_addresses(&mut secs, &[0, 1], 0x1000);
        assert_eq!(secs[0].addr, 0x1000);
        assert_eq!(secs[1].addr, 0x1010);
        assert_eq!(end, 0x1015);
    }
}
