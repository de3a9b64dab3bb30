//! Round-robin striping and request decomposition.
//!
//! A parallel file is placed across `M` servers in fixed-size stripes,
//! round-robin: global stripe `k` lives on server `k mod M`, at local
//! stripe index `k / M`. A file request `[offset, offset+len)` therefore
//! decomposes into at most one *contiguous* local range per involved server
//! (plus a second range in the rare wrap cases) — the sub-requests of the
//! paper's Figure 4.

/// One per-server piece of a decomposed file request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubRange {
    /// Index of the server holding this piece.
    pub server: usize,
    /// Offset within the server-local file object.
    pub local_offset: u64,
    /// Offset within the global file where this piece begins.
    pub file_offset: u64,
    /// Piece length in bytes.
    pub len: u64,
}

/// Round-robin striping geometry.
///
/// ```
/// use s4d_pfs::StripeLayout;
/// let l = StripeLayout::new(64 * 1024, 8);
/// // A 16 KiB request inside one stripe touches exactly one server.
/// assert_eq!(l.split(0, 16 * 1024).len(), 1);
/// // A 4 MiB aligned request touches all 8 servers.
/// assert_eq!(l.split(0, 4 * 1024 * 1024).len(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeLayout {
    stripe: u64,
    servers: usize,
}

impl StripeLayout {
    /// Creates a layout with the given stripe size and server count.
    ///
    /// # Panics
    ///
    /// Panics if `stripe == 0` or `servers == 0`.
    pub fn new(stripe: u64, servers: usize) -> Self {
        assert!(stripe > 0, "stripe size must be positive");
        assert!(servers > 0, "server count must be positive");
        StripeLayout { stripe, servers }
    }

    /// Number of servers (the paper's `M` or `N`).
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// Global stripes `[offset, offset+len)` covers. An end past
    /// `u64::MAX` saturates instead of panicking, clipping the request to
    /// the addressable range.
    fn stripes_spanned(&self, offset: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        (offset.saturating_add(len) - 1) / self.stripe - offset / self.stripe + 1
    }

    /// Number of distinct servers a request touches — the paper's `m`
    /// (Equation 6): `min(E − B + 1, M)` for beginning stripe `B` and
    /// ending stripe `E`.
    pub fn involved_servers(&self, offset: u64, len: u64) -> usize {
        self.stripes_spanned(offset, len).min(self.servers as u64) as usize
    }

    /// The distinct servers holding part of `[offset, offset+len)`, in
    /// file order from the request's first stripe — exactly the servers
    /// of [`StripeLayout::split_iter`], without computing the pieces.
    /// Allocation-free; yields [`StripeLayout::involved_servers`] items.
    pub fn servers_touched(&self, offset: u64, len: u64) -> impl Iterator<Item = usize> {
        let servers = self.servers as u64;
        let first = offset / self.stripe;
        // `first + i` never passes the request's last stripe index.
        (0..self.involved_servers(offset, len) as u64)
            .map(move |i| ((first + i) % servers) as usize)
    }

    /// True if `server` holds part of `[offset, offset+len)`.
    pub fn touches(&self, server: usize, offset: u64, len: u64) -> bool {
        self.servers_touched(offset, len).any(|s| s == server)
    }

    /// Size of the largest per-server sub-request — the paper's `s_m`
    /// (Table II), computed directly from the decomposition.
    pub fn max_subrequest(&self, offset: u64, len: u64) -> u64 {
        // Each involved server gets exactly one sub-range (see `SubRanges`).
        self.split_iter(offset, len)
            .map(|sr| sr.len)
            .max()
            .unwrap_or(0)
    }

    /// Decomposes `[offset, offset+len)` into per-server contiguous local
    /// ranges, merging stripes that are adjacent in a server's local space.
    ///
    /// Sub-ranges are returned ordered by file offset. A zero-length request
    /// yields no sub-ranges. Collects [`StripeLayout::split_iter`]; code
    /// that only walks the pieces should use the iterator directly.
    pub fn split(&self, offset: u64, len: u64) -> Vec<SubRange> {
        self.split_iter(offset, len).collect()
    }

    /// Lazy form of [`StripeLayout::split`]: the same sub-ranges in the
    /// same order, computed one at a time without allocating.
    pub fn split_iter(&self, offset: u64, len: u64) -> SubRanges {
        let end = offset.saturating_add(len);
        let stripes = self.stripes_spanned(offset, len);
        SubRanges {
            layout: *self,
            offset,
            end,
            stripes,
            next: 0,
        }
    }

    /// Expands a sub-range back into the global-file segments it carries.
    ///
    /// A merged sub-range is contiguous in the server's local space but may
    /// correspond to several stripes of the global file, spaced
    /// `servers × stripe` apart. Yields `(file_offset, len)` pairs in file
    /// order; their lengths sum to `sub.len`.
    pub fn file_segments(&self, sub: &SubRange) -> FileSegments {
        FileSegments {
            layout: *self,
            server: sub.server as u64,
            local: sub.local_offset,
            remaining: sub.len,
        }
    }
}

/// Iterator over the sub-ranges of one request — see
/// [`StripeLayout::split_iter`].
///
/// Round-robin placement puts stripe `k + servers` directly after stripe
/// `k` in the same server's local space, so every stripe a request covers
/// on one server merges into a single sub-range: the request's first
/// `min(stripes, servers)` stripes each open one, in file order, and the
/// `i`-th absorbs every `servers`-th stripe after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubRanges {
    layout: StripeLayout,
    offset: u64,
    /// Saturated end of the request.
    end: u64,
    /// Global stripes the request touches.
    stripes: u64,
    /// Index of the next sub-range to yield.
    next: u64,
}

impl Iterator for SubRanges {
    type Item = SubRange;

    fn next(&mut self) -> Option<SubRange> {
        let StripeLayout { stripe, servers } = self.layout;
        let servers = servers as u64;
        let i = self.next;
        if i >= self.stripes.min(servers) {
            return None;
        }
        self.next += 1;
        let k = self.offset / stripe + i;
        let stripe_start = k * stripe;
        let lo = stripe_start.max(self.offset);
        let hi = stripe_start.saturating_add(stripe).min(self.end);
        // Stripes k, k + servers, … up to the request's last stripe.
        let merged = (self.stripes - 1 - i) / servers + 1;
        let mut len = hi - lo;
        if merged > 1 {
            let last_start = (k + (merged - 1) * servers) * stripe;
            len += (merged - 2) * stripe + stripe.min(self.end - last_start);
        }
        Some(SubRange {
            server: (k % servers) as usize,
            local_offset: (k / servers) * stripe + (lo - stripe_start),
            file_offset: lo,
            len,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.stripes.min(self.layout.servers as u64) - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SubRanges {}

/// Iterator over the global-file `(file_offset, len)` segments of one
/// sub-range — see [`StripeLayout::file_segments`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSegments {
    layout: StripeLayout,
    server: u64,
    /// Server-local offset of the next segment.
    local: u64,
    remaining: u64,
}

impl Iterator for FileSegments {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let StripeLayout { stripe, servers } = self.layout;
        let within = self.local % stripe;
        let global_stripe = (self.local / stripe) * servers as u64 + self.server;
        let chunk = self.remaining.min(stripe - within);
        self.local += chunk;
        self.remaining -= chunk;
        Some((global_stripe * stripe + within, chunk))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let stripe = self.layout.stripe;
        let n = if self.remaining == 0 {
            0
        } else {
            ((self.local % stripe).saturating_add(self.remaining - 1) / stripe + 1) as usize
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for FileSegments {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KIB: u64 = 1024;

    /// The per-byte oracle: one file offset's `(server, local_offset)`,
    /// straight from the round-robin definition.
    fn locate(l: &StripeLayout, offset: u64) -> (usize, u64) {
        let k = offset / l.stripe;
        let server = (k % l.servers as u64) as usize;
        let local = (k / l.servers as u64) * l.stripe + offset % l.stripe;
        (server, local)
    }

    fn layout() -> StripeLayout {
        StripeLayout::new(64 * KIB, 8)
    }

    /// The eager stripe-by-stripe decomposition `split` used before it
    /// became an iterator — the oracle for `prop_split_iter_matches_eager`.
    fn split_eager(l: &StripeLayout, offset: u64, len: u64) -> Vec<SubRange> {
        let mut out: Vec<SubRange> = Vec::new();
        if len == 0 {
            return out;
        }
        let end = offset.saturating_add(len);
        for k in offset / l.stripe..=(end - 1) / l.stripe {
            let stripe_start = k * l.stripe;
            let lo = stripe_start.max(offset);
            let hi = stripe_start.saturating_add(l.stripe).min(end);
            let server = (k % l.servers as u64) as usize;
            let local = (k / l.servers as u64) * l.stripe + (lo - stripe_start);
            if let Some(prev) = out.iter_mut().rev().find(|p| p.server == server) {
                if prev.local_offset + prev.len == local {
                    prev.len += hi - lo;
                    continue;
                }
            }
            out.push(SubRange {
                server,
                local_offset: local,
                file_offset: lo,
                len: hi - lo,
            });
        }
        out
    }

    /// Eager oracle for `file_segments`, likewise.
    fn file_segments_eager(l: &StripeLayout, sub: &SubRange) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut local = sub.local_offset;
        let mut remaining = sub.len;
        while remaining > 0 {
            let within = local % l.stripe;
            let global_stripe = (local / l.stripe) * l.servers as u64 + sub.server as u64;
            let chunk = remaining.min(l.stripe - within);
            out.push((global_stripe * l.stripe + within, chunk));
            local += chunk;
            remaining -= chunk;
        }
        out
    }

    #[test]
    fn single_stripe_request_hits_one_server() {
        let l = layout();
        let subs = l.split(0, 16 * KIB);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].server, 0);
        assert_eq!(subs[0].local_offset, 0);
        assert_eq!(subs[0].len, 16 * KIB);
        assert_eq!(l.involved_servers(0, 16 * KIB), 1);
        assert_eq!(l.max_subrequest(0, 16 * KIB), 16 * KIB);
    }

    #[test]
    fn unaligned_small_request_inside_later_stripe() {
        let l = layout();
        // Offset 130 KiB = stripe 2 (server 2), 2 KiB into it.
        let subs = l.split(130 * KIB, 4 * KIB);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].server, 2);
        assert_eq!(subs[0].local_offset, 2 * KIB);
    }

    #[test]
    fn request_spanning_two_stripes() {
        let l = layout();
        // 60 KiB..68 KiB spans stripes 0 and 1.
        let subs = l.split(60 * KIB, 8 * KIB);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].server, 0);
        assert_eq!(subs[0].local_offset, 60 * KIB);
        assert_eq!(subs[0].len, 4 * KIB);
        assert_eq!(subs[1].server, 1);
        assert_eq!(subs[1].local_offset, 0);
        assert_eq!(subs[1].len, 4 * KIB);
    }

    #[test]
    fn full_round_touches_all_servers_once() {
        let l = layout();
        let subs = l.split(0, 8 * 64 * KIB);
        assert_eq!(subs.len(), 8);
        for (i, sr) in subs.iter().enumerate() {
            assert_eq!(sr.server, i);
            assert_eq!(sr.local_offset, 0);
            assert_eq!(sr.len, 64 * KIB);
        }
    }

    #[test]
    fn multi_round_request_merges_contiguous_local_ranges() {
        let l = layout();
        // Two full rounds: each server gets stripes k and k+8, which are
        // local-contiguous, so exactly one sub-request per server.
        let subs = l.split(0, 16 * 64 * KIB);
        assert_eq!(subs.len(), 8);
        for sr in &subs {
            assert_eq!(sr.len, 2 * 64 * KIB);
            assert_eq!(sr.local_offset, 0);
        }
        assert_eq!(l.max_subrequest(0, 16 * 64 * KIB), 128 * KIB);
        assert_eq!(l.involved_servers(0, 16 * 64 * KIB), 8);
    }

    #[test]
    fn partial_boundaries_make_unequal_subrequests() {
        let l = layout();
        // Start mid-stripe: b = 32 KiB tail on first server, e = 32 KiB head
        // beyond, matching the paper's case analysis.
        let subs = l.split(32 * KIB, 64 * KIB);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].len, 32 * KIB);
        assert_eq!(subs[1].len, 32 * KIB);
        // 32 KiB..160 KiB: tail of stripe 0, all of stripe 1, head of stripe 2.
        let subs = l.split(32 * KIB, 128 * KIB);
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[0].len, 32 * KIB);
        assert_eq!(subs[1].len, 64 * KIB);
        assert_eq!(subs[2].len, 32 * KIB);
        assert_eq!(l.max_subrequest(32 * KIB, 128 * KIB), 64 * KIB);
    }

    #[test]
    fn locate_matches_split() {
        let l = layout();
        for off in [0u64, 1, 63 * KIB, 64 * KIB, 511 * KIB, 8 * 64 * KIB + 5] {
            let (srv, local) = locate(&l, off);
            let subs = l.split(off, 1);
            assert_eq!(subs.len(), 1);
            assert_eq!(subs[0].server, srv);
            assert_eq!(subs[0].local_offset, local);
        }
    }

    #[test]
    fn zero_length_yields_nothing() {
        let l = layout();
        assert!(l.split(100, 0).is_empty());
        assert_eq!(l.involved_servers(100, 0), 0);
        assert_eq!(l.max_subrequest(100, 0), 0);
    }

    #[test]
    fn involved_servers_caps_at_m() {
        let l = layout();
        assert_eq!(l.involved_servers(0, 100 * 64 * KIB), 8);
    }

    #[test]
    fn file_segments_invert_split() {
        let l = layout();
        // Merged two-round request: segments come back as the 16 stripes.
        for (off, len) in [
            (0u64, 16 * 64 * KIB),
            (32 * KIB, 96 * KIB),
            (130 * KIB, 4 * KIB),
            (60 * KIB, 8 * KIB),
        ] {
            let subs = l.split(off, len);
            let mut segs: Vec<(u64, u64)> = subs.iter().flat_map(|s| l.file_segments(s)).collect();
            segs.sort_unstable();
            // Coalesce adjacent segments, then the result must be the range.
            let mut merged: Vec<(u64, u64)> = Vec::new();
            for (s, n) in segs {
                match merged.last_mut() {
                    Some((ms, mn)) if *ms + *mn == s => *mn += n,
                    _ => merged.push((s, n)),
                }
            }
            assert_eq!(merged, vec![(off, len)], "range {off}+{len}");
        }
    }

    #[test]
    #[should_panic(expected = "stripe size must be positive")]
    fn rejects_zero_stripe() {
        StripeLayout::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "server count must be positive")]
    fn rejects_zero_servers() {
        StripeLayout::new(4096, 0);
    }

    proptest! {
        /// The lazy iterators yield exactly the eager decompositions,
        /// with exact size hints — including empty requests and requests
        /// whose end saturates at `u64::MAX`.
        #[test]
        fn prop_split_iter_matches_eager(
            stripe in 1u64..(1 << 17),
            servers in 1usize..12,
            near_end in any::<bool>(),
            raw_offset in 0u64..(1 << 20),
            len in prop_oneof![Just(0u64), 1u64..(1 << 20), Just(u64::MAX)],
        ) {
            let l = StripeLayout::new(stripe, servers);
            // A saturating `len` only stays walkable next to the end of
            // the address space.
            let offset = if near_end || len == u64::MAX {
                u64::MAX - raw_offset
            } else {
                raw_offset
            };
            let eager = split_eager(&l, offset, len);
            let lazy = l.split_iter(offset, len);
            prop_assert_eq!(lazy.len(), eager.len());
            prop_assert_eq!(&lazy.collect::<Vec<_>>(), &eager);
            prop_assert_eq!(&l.split(offset, len), &eager);
            for sub in &eager {
                let segs = file_segments_eager(&l, sub);
                let lazy = l.file_segments(sub);
                prop_assert_eq!(lazy.len(), segs.len());
                prop_assert_eq!(lazy.collect::<Vec<_>>(), segs);
            }
        }

        /// `servers_touched` / `touches` name exactly the servers of the
        /// decomposition — single-stripe requests, requests spanning one
        /// or many full rounds, and ends that saturate at `u64::MAX`.
        #[test]
        fn prop_servers_touched_matches_split(
            stripe in 1u64..(1 << 17),
            servers in 1usize..12,
            near_end in any::<bool>(),
            raw_offset in 0u64..(1 << 20),
            len in prop_oneof![Just(0u64), 1u64..(1 << 22), Just(u64::MAX)],
        ) {
            let l = StripeLayout::new(stripe, servers);
            let offset = if near_end || len == u64::MAX {
                u64::MAX - raw_offset
            } else {
                raw_offset
            };
            let expected: Vec<usize> = l.split_iter(offset, len).map(|s| s.server).collect();
            prop_assert_eq!(&l.servers_touched(offset, len).collect::<Vec<_>>(), &expected);
            prop_assert_eq!(expected.len(), l.involved_servers(offset, len));
            for server in 0..servers {
                prop_assert_eq!(l.touches(server, offset, len), expected.contains(&server));
            }
        }

        /// The decomposition must exactly tile the requested range.
        #[test]
        fn prop_split_tiles_range(
            stripe_kib in 1u64..128,
            servers in 1usize..12,
            offset in 0u64..(1 << 24),
            len in 1u64..(1 << 22),
        ) {
            let l = StripeLayout::new(stripe_kib * KIB, servers);
            let subs = l.split(offset, len);
            let total: u64 = subs.iter().map(|s| s.len).sum();
            prop_assert_eq!(total, len);
            prop_assert_eq!(subs.first().unwrap().file_offset, offset);
            for s in &subs {
                prop_assert!(s.server < servers);
            }
            // The file segments of all pieces tile [offset, offset+len)
            // exactly, with no overlap and no gap.
            let mut segs: Vec<(u64, u64)> =
                subs.iter().flat_map(|s| l.file_segments(s)).collect();
            segs.sort_unstable();
            let mut cursor = offset;
            for (s, n) in segs {
                prop_assert_eq!(s, cursor, "gap or overlap at {}", cursor);
                cursor += n;
            }
            prop_assert_eq!(cursor, offset + len);
        }

        /// involved_servers equals the number of distinct servers in split().
        #[test]
        fn prop_involved_servers_consistent(
            stripe_kib in 1u64..64,
            servers in 1usize..10,
            offset in 0u64..(1 << 22),
            len in 1u64..(1 << 20),
        ) {
            let l = StripeLayout::new(stripe_kib * KIB, servers);
            let distinct: std::collections::HashSet<usize> =
                l.split(offset, len).iter().map(|s| s.server).collect();
            prop_assert_eq!(distinct.len(), l.involved_servers(offset, len));
        }

        /// locate() agrees with split() for every byte of a small request.
        #[test]
        fn prop_locate_agrees_with_split(
            stripe in 1u64..4096,
            servers in 1usize..7,
            offset in 0u64..65536,
            len in 1u64..512,
        ) {
            let l = StripeLayout::new(stripe, servers);
            let subs = l.split(offset, len);
            // For every byte: locate() must agree with the sub-range whose
            // file segment contains the byte, at the matching local offset.
            for byte in offset..offset + len {
                let (srv, local) = locate(&l, byte);
                let mut found = false;
                for s in &subs {
                    let mut local_cursor = s.local_offset;
                    for (seg_off, seg_len) in l.file_segments(s) {
                        if seg_off <= byte && byte < seg_off + seg_len {
                            prop_assert_eq!(s.server, srv);
                            prop_assert_eq!(local_cursor + (byte - seg_off), local);
                            found = true;
                        }
                        local_cursor += seg_len;
                    }
                }
                prop_assert!(found, "byte {} not covered by any segment", byte);
            }
        }
    }
}
