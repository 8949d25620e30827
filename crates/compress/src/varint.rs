//! LEB128 varints and zig-zag: the one byte code of the workspace.
//!
//! GraphH writes integers as byte codes in three places, all LEB128 (seven
//! payload bits a byte, low bits first, the high bit set on every byte but
//! the last; the byte codes of WebGraph and Ligra+): the edge cache's packed
//! tiles (`Tile::{to_packed, from_packed}` in `graphh-partition`,
//! `docs/WIRE.md` §12), the broadcast messages' id gaps and integer codes
//! (`BroadcastMessage` in `graphh-cluster`, §11), and the
//! [`Codec::VarintDelta`](crate::Codec) message compressor, which delta-codes
//! any payload read as 32-bit words ([`encode_bytes_as_u32_delta_into`]).
//! This module decides the format for all of them:
//!
//! * a reader ([`Varints`]) accepts only the shortest encoding of a value
//!   that fits 64 bits; a caller that needs a `u32` narrows with `try_from`;
//! * [`varint_len`] sizes a varint from its value's `leading_zeros`;
//! * [`write_varint`] appends one to a `Vec`, a byte at a time, and
//!   [`VarintWriter`] writes them into a buffer already sized for them, each
//!   as one 8-byte store;
//! * [`zigzag`] and [`unzigzag`] carry signed deltas as small unsigned values.
//!
//! The reader works a word at a time, in portable Rust. It loads eight
//! bytes, gathers their stop bits (high bit clear) into one byte with a
//! multiply, and looks that byte up in a 256-entry table of the varints that
//! end in the window: how many, where each ends, and the two shifts that cut
//! it out. Three shift-and-mask steps pack the window's 7-bit groups side by
//! side, and one mask finds a non-shortest varint anywhere in the bytes taken
//! (a 0 after a continued byte). That is the scalar core of Plaisance, Kurz
//! and Lemire's "Vectorized VByte Decoding" (2015). A varint that does not
//! end inside a full window goes byte by byte ([`Varints::read`]).
//! [`Varints::run`] hands a run of varints to a closure; [`Varints::run_u32`]
//! lands them as `u32`s straight in a slice, eight slots a window, whatever
//! the window holds. The writer's bytes are [`write_varint`]'s, and the
//! reader's verdicts and values those of [`Varints::read`] called once per
//! varint: the tests keep both per-byte coders as the reference.
//!
//! ## 64-byte lanes
//!
//! On a CPU with AVX-512F, BW, VBMI and VBMI2, BMI2 and POPCNT
//! ([`Lanes::avx512`], checked with `is_x86_feature_detected!`), the same
//! codes go through 64-byte registers. [`Lanes::widest`] picks them, and
//! [`Varints::new`] and every caller of the gap kernels below ask it. There
//! is no setting: the portable code is the fallback and the reference
//! ([`Lanes::WORD`]), every kernel gives the same bytes, values, cursor and
//! verdicts in both, and the tests run both on a CPU that has the lanes.
//!
//! * The reader decodes the varints of one 64-byte load sixteen at a time,
//!   up to four sixteens. The stop bits come out as a 64-bit mask, `pdep`
//!   finds the last stop taken, a compress of an iota lists where each
//!   varint begins, one byte permute per sixteen puts each varint in its own
//!   `u32` lane, and two multiply-adds join its 7-bit groups. One mask finds
//!   a varint wider than four bytes and one a varint not in its shortest
//!   form; either, fewer than sixteen stops or fewer than 64 bytes left send
//!   the cursor down the portable path, which issues any verdict, for the 64
//!   bytes declined.
//! * The edge cache's per-target runs ([`Lanes::zigzag_gaps_len`],
//!   [`VarintWriter::put_zigzag_gaps`], [`Lanes::sum_zigzag_gaps`]) code each
//!   value as its zig-zag gap from the value before it, from 0 where a run
//!   begins ([`run_starts`]). The writer takes sixteen gaps in 32-bit lanes,
//!   spreads each into 7-bit groups with one multishift, sets the
//!   continuation bits below each varint's highest non-zero group, and
//!   compresses the bytes the varints take into one store; sixteen values
//!   whose gaps do not fit those lanes (a value at 2³¹ or above, or a gap of
//!   five bytes), and the last few, go through the portable writer. The reader's
//!   second pass is a segmented prefix sum in 64-bit lanes, restarted at
//!   each run start, so the first sum that leaves `0..=u32::MAX` is found
//!   exactly.

/// Bytes an LEB128 varint takes, by its value's `leading_zeros`: one per
/// seven significant bits, at least one.
const VARINT_LEN: [u8; 65] = {
    let mut table = [1; 65];
    let mut zeros = 0;
    while zeros < 64 {
        table[zeros] = (64 - zeros as u8).div_ceil(7);
        zeros += 1;
    }
    table
};

/// Bytes `value` takes as an LEB128 varint.
#[inline]
pub fn varint_len(value: u64) -> u64 {
    u64::from(VARINT_LEN[value.leading_zeros() as usize])
}

/// Append `value` to `out` as an LEB128 varint, a byte at a time.
#[inline]
pub fn write_varint(mut value: u64, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// A signed delta as an unsigned value, small magnitudes small:
/// `(d << 1) ⊕ (d >> 63)`.
#[inline]
pub fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// The high bit of every byte of a word: LEB128's continuation bits.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;
/// The seven payload bits of every byte of a word.
const LOW_BITS: u64 = 0x7F7F_7F7F_7F7F_7F7F;
/// Gathers the high bits of a word's eight bytes, shifted down to bit 0 of
/// each, into its top byte: byte `i`'s lands on bit `56 + i`.
const BYTE_GATHER: u64 = 0x0102_0408_1020_4080;

/// The LEB128 varints that end in an 8-byte window, indexed by the window's
/// stop bits: bit `i` of the index is set when byte `i` has its high bit
/// clear, so the `k`-th set bit ends the `k`-th varint and the next begins
/// after it.
#[derive(Clone, Copy)]
struct Window {
    /// Varints that end in the window.
    count: u8,
    /// How many varints, from the first, take four bytes or fewer, so hold
    /// less than 2²⁸.
    narrow: u8,
    /// Per varint: one past its last byte.
    end: [u8; 8],
    /// Per varint: the shift left that [`Window::cut`] starts with,
    /// `64 − 7·end`, which drops the groups after it.
    left: [u8; 8],
    /// Per varint: the shift right that follows, `64 − 7·width`, which drops
    /// the groups before it. A slot past `count` shifts by 63, leaving 0.
    right: [u8; 8],
}

impl Window {
    /// The `k`-th varint of the window whose [`compact`]ed groups are
    /// `groups`.
    #[inline]
    fn cut(&self, groups: u64, k: usize) -> u64 {
        (groups << self.left[k]) >> self.right[k]
    }
}

const WINDOWS: [Window; 256] = {
    let mut table = [Window {
        count: 0,
        narrow: 0,
        end: [0; 8],
        left: [0; 8],
        right: [63; 8],
    }; 256];
    let mut stops = 0;
    while stops < 256 {
        let window = &mut table[stops];
        let mut start = 0;
        let mut byte = 0;
        while byte < 8 {
            if stops >> byte & 1 == 1 {
                let k = window.count as usize;
                let (end, width) = (byte + 1, byte + 1 - start);
                window.end[k] = end;
                window.left[k] = 64 - 7 * end;
                window.right[k] = 64 - 7 * width;
                if window.narrow as usize == k && width <= 4 {
                    window.narrow += 1;
                }
                window.count += 1;
                start = end;
            }
            byte += 1;
        }
        stops += 1;
    }
    table
};

/// The window's eight 7-bit groups, high bits dropped, packed side by side
/// into the low 56 bits: pairs, then quads, then all eight.
#[inline]
fn compact(word: u64) -> u64 {
    let x = word & LOW_BITS;
    let x = (x & 0x007F_007F_007F_007F) | ((x & 0x7F00_7F00_7F00_7F00) >> 1);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x3FFF_0000_3FFF_0000) >> 2);
    (x & 0x0000_0000_0FFF_FFFF) | ((x & 0x0FFF_FFFF_0000_0000) >> 4)
}

/// [`compact`] run backwards: a value below 2⁵⁶ spread over eight 7-bit
/// groups, one a byte, high bits clear.
#[inline]
fn spread(value: u64) -> u64 {
    let x = (value & 0x0000_0000_0FFF_FFFF) | ((value << 4) & 0x0FFF_FFFF_0000_0000);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x << 2) & 0x3FFF_0000_3FFF_0000);
    (x & 0x007F_007F_007F_007F) | ((x << 1) & 0x7F00_7F00_7F00_7F00)
}

/// By a varint's width in bytes up to eight: the high bit of every byte but
/// its last.
const CONTINUED: [u64; 9] = {
    let mut table = [0; 9];
    let mut width = 2;
    while width < 9 {
        table[width] = HIGH_BITS >> (72 - 8 * width);
        width += 1;
    }
    table
};

/// Which code the kernels run: the portable word-at-a-time code, or the
/// 64-byte AVX-512 lanes (see the module docs). [`Lanes::widest`] is what
/// every caller gets; the narrower kind exists so that the tests hold each
/// to the same reference on one CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lanes(Kind);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Word,
    /// Made only by [`Lanes::avx512`], after it found every feature the
    /// kernels of [`avx512`] are compiled for.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Lanes {
    /// The portable code: 8-byte windows, on any CPU.
    pub const WORD: Self = Self(Kind::Word);

    /// The 64-byte lanes, if this CPU runs them: AVX-512F, BW, VBMI and
    /// VBMI2, BMI2 and POPCNT.
    pub fn avx512() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vbmi")
            && std::arch::is_x86_feature_detected!("avx512vbmi2")
            && std::arch::is_x86_feature_detected!("bmi2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            return Some(Self(Kind::Avx512));
        }
        None
    }

    /// The widest lanes this CPU runs.
    pub fn widest() -> Self {
        Self::avx512().unwrap_or(Self::WORD)
    }

    /// Every kind this CPU runs, the portable one first.
    pub fn all() -> impl Iterator<Item = Self> {
        std::iter::once(Self::WORD).chain(Self::avx512())
    }

    /// A cursor at the start of `data` that decodes in these lanes.
    pub fn varints(self, data: &[u8]) -> Varints<'_> {
        Varints {
            data,
            pos: 0,
            lanes: self,
        }
    }

    /// Bytes [`VarintWriter::put_zigzag_gaps`] writes for `values` and
    /// `starts`.
    ///
    /// # Panics
    /// Panics if `starts` has fewer than one bit per value.
    pub fn zigzag_gaps_len(self, values: &[u32], starts: &[u64]) -> u64 {
        assert!(starts.len() * 64 >= values.len(), "one start bit a value");
        match self.0 {
            Kind::Word => (0..values.len())
                .map(|k| varint_len(zigzag_gap(values, starts, k)))
                .sum(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kind::Avx512` is only made after the features the
            // kernel is compiled for were found.
            Kind::Avx512 => {
                let mut counter = VarintWriter::new(&mut []);
                unsafe { avx512::gaps::<false>(values, starts, &mut counter) };
                counter.pos as u64
            }
        }
    }

    /// Undo [`VarintWriter::put_zigzag_gaps`] in place: each slot holds a
    /// zig-zag gap, and becomes the sum of its run's gaps up to it, the run
    /// restarting at 0 where `starts` has a bit. `false`, the slots garbage,
    /// when one of those sums leaves `0..=u32::MAX` — exactly when adding
    /// the gaps one at a time with checked arithmetic would fail.
    ///
    /// # Panics
    /// Panics if `starts` has fewer than one bit per slot.
    pub fn sum_zigzag_gaps(self, gaps: &mut [u32], starts: &[u64]) -> bool {
        assert!(starts.len() * 64 >= gaps.len(), "one start bit a value");
        match self.0 {
            Kind::Word => {
                let (mut sum, mut high) = (0u64, 0u64);
                for (k, slot) in gaps.iter_mut().enumerate() {
                    if starts_at(starts, k) {
                        sum = 0;
                    }
                    // Two's complement: the sum is in `0..=u32::MAX` exactly
                    // when the signed sum is, and a gap moves it by less
                    // than 2³², so the first sum out of range is seen.
                    sum = sum.wrapping_add(unzigzag(u64::from(*slot)) as u64);
                    high |= sum;
                    *slot = sum as u32;
                }
                high <= u64::from(u32::MAX)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `zigzag_gaps_len`.
            Kind::Avx512 => unsafe { avx512::sum_zigzag_gaps(gaps, starts) },
        }
    }
}

/// The run-start bitmap the gap kernels take: bit `k % 64` of word `k / 64`
/// set for each `k` of `bounds` below `len` — for a CSR's offsets, the
/// first value of every non-empty run.
pub fn run_starts(bounds: &[u64], len: usize) -> Vec<u64> {
    let mut starts = vec![0u64; len.div_ceil(64)];
    for &k in bounds.iter().filter(|&&k| k < len as u64) {
        starts[k as usize / 64] |= 1 << (k % 64);
    }
    starts
}

/// Whether value `k` begins a run.
#[inline]
fn starts_at(starts: &[u64], k: usize) -> bool {
    starts[k / 64] >> (k % 64) & 1 == 1
}

/// The zig-zag gap of value `k`: from the value before it, from 0 where a
/// run begins.
#[inline]
fn zigzag_gap(values: &[u32], starts: &[u64], k: usize) -> u64 {
    let prev = match k {
        0 => 0,
        k if starts_at(starts, k) => 0,
        k => values[k - 1],
    };
    zigzag(i64::from(values[k]) - i64::from(prev))
}

/// Writes varints into a buffer already sized for them (by
/// [`varint_len`]), from its start.
pub struct VarintWriter<'a> {
    out: &'a mut [u8],
    pos: usize,
}

impl<'a> VarintWriter<'a> {
    /// A writer at the start of `out`.
    pub fn new(out: &'a mut [u8]) -> Self {
        Self { out, pos: 0 }
    }

    /// Bytes written so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Write `value` as an LEB128 varint: with eight bytes of room, one
    /// 8-byte store whose bytes past the varint the next write overwrites.
    ///
    /// # Panics
    /// Panics if the varint does not fit the bytes left.
    #[inline]
    pub fn put(&mut self, value: u64) {
        let width = varint_len(value) as usize;
        match self.out.get_mut(self.pos..self.pos + 8) {
            Some(window) if width <= 8 => {
                window.copy_from_slice(&(spread(value) | CONTINUED[width]).to_le_bytes());
            }
            _ => {
                let mut value = value;
                let (last, continued) = self.out[self.pos..self.pos + width]
                    .split_last_mut()
                    .expect("a varint takes a byte");
                for byte in continued {
                    *byte = value as u8 | 0x80;
                    value >>= 7;
                }
                *last = value as u8;
            }
        }
        self.pos += width;
    }

    /// Write each of `values` as the varint of its zig-zag gap from the
    /// value before it, from 0 where a run begins (bit `k` of `starts`, as
    /// [`run_starts`] lays it out), in `lanes`: the bytes of [`put`] called
    /// once per gap, [`Lanes::zigzag_gaps_len`] of them.
    ///
    /// [`put`]: VarintWriter::put
    ///
    /// # Panics
    /// Panics if the varints do not fit the bytes left, or `starts` has
    /// fewer than one bit per value.
    pub fn put_zigzag_gaps(&mut self, lanes: Lanes, values: &[u32], starts: &[u64]) {
        assert!(starts.len() * 64 >= values.len(), "one start bit a value");
        match lanes.0 {
            Kind::Word => {
                for k in 0..values.len() {
                    self.put(zigzag_gap(values, starts, k));
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `Lanes::zigzag_gaps_len`.
            Kind::Avx512 => unsafe { avx512::gaps::<true>(values, starts, self) },
        }
    }
}

/// A cursor over a run of LEB128 varints. Every read accepts only the
/// shortest encoding of a value that fits 64 bits.
#[derive(Clone)]
pub struct Varints<'a> {
    data: &'a [u8],
    pos: usize,
    lanes: Lanes,
}

impl<'a> Varints<'a> {
    /// A cursor at the start of `data`, in the widest lanes this CPU runs.
    pub fn new(data: &'a [u8]) -> Self {
        Lanes::widest().varints(data)
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The next varint, a byte at a time: no final byte of 0 after the
    /// first, and a tenth byte may only be 1.
    #[inline]
    pub fn read(&mut self) -> Result<u64, &'static str> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let Some(&byte) = self.data.get(self.pos) else {
                return Err("varint truncated");
            };
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err("varint overflows u64");
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                if byte == 0 && shift > 0 {
                    return Err("varint not in its shortest form");
                }
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// The varints that end in the eight bytes at the cursor, at most
    /// `left` of them, with the cursor moved past them: their 7-bit groups
    /// side by side ([`compact`]), the window's shape ([`WINDOWS`], whose
    /// [`Window::cut`] takes each out), and how many. `None`, the cursor
    /// unmoved, when fewer than eight bytes remain or none of them ends a
    /// varint.
    ///
    /// A varint that ends in the window has at most eight bytes, so it fits
    /// 64 bits; it is in its shortest form unless its last byte is 0 after a
    /// continued byte, which one mask checks for all of them.
    #[inline]
    fn window(
        &mut self,
        left: usize,
    ) -> Result<Option<(u64, &'static Window, usize)>, &'static str> {
        let Some(bytes) = self.data.get(self.pos..self.pos + 8) else {
            return Ok(None);
        };
        let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        let stops = !word & HIGH_BITS;
        let shape = &WINDOWS[((stops >> 7).wrapping_mul(BYTE_GATHER) >> 56) as usize];
        let count = usize::from(shape.count).min(left);
        if count == 0 {
            return Ok(None);
        }
        let end = shape.end[count - 1];
        let taken = u64::MAX >> (64 - 8 * u32::from(end));
        // High bit of byte `i` set when byte `i` is 0 (exact: no byte's sum
        // carries into the next), and when byte `i - 1` continues.
        let zero = !(((word & LOW_BITS) + LOW_BITS) | word) & HIGH_BITS;
        if zero & (word & HIGH_BITS) << 8 & taken != 0 {
            return Err("varint not in its shortest form");
        }
        self.pos += usize::from(end);
        Ok(Some((compact(word), shape, count)))
    }

    /// The next `n` varints, handed to `each` in order, under the rules of
    /// [`Varints::read`]: sixteen at a time in 64-byte lanes where the
    /// cursor's lanes have them, else a window at a time, and a varint that
    /// does not end in one (nine or ten bytes, or within eight bytes of the
    /// end) through [`Varints::read`]. The first error, the reader's or
    /// `each`'s, ends the run.
    #[inline]
    pub fn run<E: From<&'static str>>(
        &mut self,
        n: usize,
        mut each: impl FnMut(u64) -> Result<(), E>,
    ) -> Result<(), E> {
        match self.lanes.0 {
            Kind::Word => self.run_words(n, &mut each),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `Lanes::zigzag_gaps_len`.
            Kind::Avx512 => unsafe { avx512::run(self, n, &mut each) },
        }
    }

    /// [`Varints::run`]'s portable loop.
    #[inline(always)]
    fn run_words<E: From<&'static str>>(
        &mut self,
        mut left: usize,
        each: &mut impl FnMut(u64) -> Result<(), E>,
    ) -> Result<(), E> {
        while left > 0 {
            left -= self.word_run(left, each)?;
        }
        Ok(())
    }

    /// One step of [`Varints::run`]'s portable loop: the varints that end in
    /// the window at the cursor, at most `left` of them, or else one varint
    /// byte by byte; how many went to `each`.
    #[inline(always)]
    fn word_run<E: From<&'static str>>(
        &mut self,
        left: usize,
        each: &mut impl FnMut(u64) -> Result<(), E>,
    ) -> Result<usize, E> {
        let Some((groups, shape, count)) = self.window(left)? else {
            each(self.read()?)?;
            return Ok(1);
        };
        for k in 0..count {
            each(shape.cut(groups, k))?;
        }
        Ok(count)
    }

    /// Move past the next `n` varints, each checked as [`Varints::run`]
    /// checks it.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Result<(), &'static str> {
        self.run(n, |_| Ok(()))
    }

    /// [`Varints::run`] into `out`, as `u32`s: the next `out.len() - 7`
    /// varints, the seven slots past them scratch. Sixteen slots at a time
    /// in 64-byte lanes; else a window whose varints are all four bytes or
    /// narrower fills eight slots unconditionally and keeps the first
    /// `count`. `Ok(false)`, the cursor somewhere in the run, when a varint
    /// does not fit `u32`.
    ///
    /// # Panics
    /// Panics if `out` is shorter than seven slots.
    #[inline]
    pub fn run_u32(&mut self, out: &mut [u32]) -> Result<bool, &'static str> {
        match self.lanes.0 {
            Kind::Word => self.run_u32_words(out, 0),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `Lanes::zigzag_gaps_len`.
            Kind::Avx512 => unsafe { avx512::run_u32(self, out) },
        }
    }

    /// [`Varints::run_u32`]'s portable loop, from slot `i` on.
    #[inline(always)]
    fn run_u32_words(&mut self, out: &mut [u32], mut i: usize) -> Result<bool, &'static str> {
        while i < out.len() - 7 {
            let Some(count) = self.word_u32(out, i)? else {
                return Ok(false);
            };
            i += count;
        }
        Ok(true)
    }

    /// One step of [`Varints::run_u32`]'s portable loop: the varints that end
    /// in the window at the cursor, or else one varint byte by byte, into
    /// the slots from `i` on; how many. `None` when one does not fit `u32`.
    #[inline(always)]
    fn word_u32(&mut self, out: &mut [u32], i: usize) -> Result<Option<usize>, &'static str> {
        let Some((groups, shape, count)) = self.window(out.len() - 7 - i)? else {
            let Ok(value) = u32::try_from(self.read()?) else {
                return Ok(None);
            };
            out[i] = value;
            return Ok(Some(1));
        };
        let slots: &mut [u32; 8] = (&mut out[i..i + 8]).try_into().expect("8 slots");
        if count <= usize::from(shape.narrow) {
            for (k, slot) in slots.iter_mut().enumerate() {
                *slot = shape.cut(groups, k) as u32;
            }
        } else {
            for (k, slot) in slots.iter_mut().enumerate().take(count) {
                let Ok(value) = u32::try_from(shape.cut(groups, k)) else {
                    return Ok(None);
                };
                *slot = value;
            }
        }
        Ok(Some(count))
    }
}

/// The 64-byte kernels (see the module docs), compiled for AVX-512F, BW,
/// VBMI and VBMI2, BMI2 and POPCNT, and called only through a [`Lanes`] of
/// [`Kind::Avx512`].
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{varint_len, zigzag_gap, VarintWriter, Varints};
    use std::arch::x86_64::*;

    #[repr(align(64))]
    struct Table([u8; 64]);

    /// Byte `j` is `j / per`.
    const fn ramp(per: u8) -> Table {
        let mut bytes = [0; 64];
        let mut j = 0;
        while j < 64 {
            bytes[j] = j as u8 / per;
            j += 1;
        }
        Table(bytes)
    }

    /// Byte `j` is `j`.
    static IOTA: Table = ramp(1);
    /// Byte `j` is `j / 4`: the `u32` lane it belongs to.
    static LANE_OF_BYTE: Table = ramp(4);

    /// A table as a register.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(table: &'static Table) -> __m512i {
        // SAFETY: a `Table` is 64 bytes, 64-aligned.
        unsafe { _mm512_load_si512(table.0.as_ptr().cast()) }
    }

    /// The varints that end in the 64 bytes at the cursor, sixteen at a
    /// time: up to `most` sixteens of them into `out`, each in its own `u32`
    /// slot, the cursor moved past them; how many sixteens. 0, the cursor
    /// unmoved, when fewer than 64 bytes remain, or they end fewer than
    /// sixteen varints, or one of those taken is wider than four bytes or not
    /// in its shortest form (a 0 after a continued byte): those the portable
    /// path decodes or refuses.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    fn sixteens(varints: &mut Varints<'_>, most: usize, out: &mut [u32]) -> usize {
        let Some(window) = varints.data.get(varints.pos..varints.pos + 64) else {
            return 0;
        };
        // SAFETY: `window` is 64 bytes long.
        let bytes = unsafe { _mm512_loadu_si512(window.as_ptr().cast()) };
        let continued = _mm512_movepi8_mask(bytes);
        let stops = !continued;
        let sixteens = (stops.count_ones() as usize / 16).min(most);
        if sixteens == 0 {
            return 0;
        }
        // The bytes up to the last stop taken: the taken varints'.
        let taken = (_pdep_u64(1 << (16 * sixteens - 1), stops) << 1).wrapping_sub(1);
        let wide = continued & continued >> 1 & continued >> 2 & continued >> 3;
        let overlong = _mm512_testn_epi8_mask(bytes, bytes) & continued << 1;
        if (wide | overlong) & taken != 0 {
            return 0;
        }
        // Byte `k`: where varint `k` begins.
        let begins = _mm512_maskz_compress_epi8(stops << 1 | 1, load(&IOTA));
        for (s, slots) in out.chunks_exact_mut(16).take(sixteens).enumerate() {
            // Byte `4k + j`: where varint `16s + k` begins, plus `j`, so `u32`
            // lane `k` gathers that varint and whatever follows it.
            let lane = _mm512_add_epi8(load(&LANE_OF_BYTE), _mm512_set1_epi8(16 * s as i8));
            let from = _mm512_add_epi8(
                _mm512_permutexvar_epi8(lane, begins),
                _mm512_set1_epi32(0x0302_0100),
            );
            let lanes = _mm512_permutexvar_epi8(from, bytes);
            // A lane's first stop byte ends its varint: keep the groups up
            // to it.
            let stop = _mm512_andnot_si512(lanes, _mm512_set1_epi8(i8::MIN));
            let first = _mm512_and_si512(stop, _mm512_sub_epi32(_mm512_setzero_si512(), stop));
            let upto = _mm512_xor_si512(first, _mm512_sub_epi32(first, _mm512_set1_epi32(1)));
            let groups = _mm512_and_si512(_mm512_and_si512(lanes, upto), _mm512_set1_epi8(0x7F));
            // Pairs of groups by 1 and 2⁷ (the multipliers are the unsigned
            // operand), then pairs of pairs by 1 and 2¹⁴.
            let pairs = _mm512_maddubs_epi16(_mm512_set1_epi16(0x8001u16 as i16), groups);
            let values = _mm512_madd_epi16(pairs, _mm512_set1_epi32(0x4000_0001));
            // SAFETY: `slots` is 64 bytes long.
            unsafe { _mm512_storeu_si512(slots.as_mut_ptr().cast(), values) };
        }
        varints.pos += taken.count_ones() as usize;
        sixteens
    }

    /// [`Varints::run`] in 64-byte lanes: up to four sixteens of varints a
    /// step while sixteen are left. Where [`sixteens`] declines, the portable
    /// path takes the 64 bytes it declined before the lanes try again, so
    /// that a run of wide varints costs one declined load per 64 bytes.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    pub(super) fn run<E: From<&'static str>>(
        varints: &mut Varints<'_>,
        mut left: usize,
        each: &mut impl FnMut(u64) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut slots = [0u32; 64];
        while left >= 16 {
            let taken = 16 * sixteens(varints, left / 16, &mut slots);
            if taken == 0 {
                let declined = varints.pos + 64;
                while left > 0 && varints.pos < declined {
                    left -= varints.word_run(left, each)?;
                }
                continue;
            }
            for &value in &slots[..taken] {
                each(value.into())?;
            }
            left -= taken;
        }
        varints.run_words(left, each)
    }

    /// [`Varints::run_u32`] in 64-byte lanes, as [`run`] steps.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    pub(super) fn run_u32(
        varints: &mut Varints<'_>,
        out: &mut [u32],
    ) -> Result<bool, &'static str> {
        let n = out.len() - 7;
        let mut i = 0;
        while n - i >= 16 {
            let taken = 16 * sixteens(varints, (n - i) / 16, &mut out[i..]);
            if taken == 0 {
                let declined = varints.pos + 64;
                while i < n && varints.pos < declined {
                    let Some(count) = varints.word_u32(out, i)? else {
                        return Ok(false);
                    };
                    i += count;
                }
                continue;
            }
            i += taken;
        }
        varints.run_u32_words(out, i)
    }

    /// The start bits of values `8c .. 8c + 8`.
    #[inline]
    fn begins(starts: &[u64], c: usize) -> u8 {
        (starts[c / 8] >> (c % 8 * 8)) as u8
    }

    /// Per 4-bit group of a mask: the bits below the group's highest set
    /// bit — for the bytes of sixteen varints' groups that are not zero, one
    /// varint to four bytes, the bytes that continue.
    #[inline]
    fn below_highest(bits: u64) -> u64 {
        let x = (bits >> 1) & 0x7777_7777_7777_7777;
        let x = x | ((x >> 1) & 0x7777_7777_7777_7777);
        x | ((x >> 2) & 0x3333_3333_3333_3333)
    }

    /// Sixteen values' zig-zag gaps as varints, one in each 32-bit lane: the
    /// lanes' bytes and the mask of the bytes the varints take; `last` is
    /// the value before them. `None` where that takes more than 32-bit
    /// lanes: a value, or `last`, at 2³¹ or above (a gap may not fit
    /// `i32`), or a gap of more than four bytes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    fn gap_varints(sixteen: &[u32; 16], begins: u16, last: u32) -> Option<(__m512i, u64)> {
        // SAFETY: `sixteen` is 64 bytes long.
        let values = unsafe { _mm512_loadu_si512(sixteen.as_ptr().cast()) };
        // Lane `k`'s previous value is lane `k − 1`'s; 0 where a run begins.
        let before = _mm512_alignr_epi32::<15>(values, _mm512_set1_epi32(last as i32));
        let high = _mm512_or_si512(values, before);
        if _mm512_test_epi32_mask(high, _mm512_set1_epi32(i32::MIN)) != 0 {
            return None;
        }
        let gap = _mm512_sub_epi32(values, _mm512_maskz_mov_epi32(!begins, before));
        let z = _mm512_xor_si512(_mm512_slli_epi32::<1>(gap), _mm512_srai_epi32::<31>(gap));
        if _mm512_cmpge_epu32_mask(z, _mm512_set1_epi32(1 << 28)) != 0 {
            return None;
        }
        // Byte `j` of a 32-bit lane takes the lane's bits from `7j` on.
        let group_at = _mm512_set1_epi64(0x352E_2720_150E_0700);
        let groups = _mm512_and_si512(
            _mm512_multishift_epi64_epi8(group_at, z),
            _mm512_set1_epi8(0x7F),
        );
        let continued = below_highest(_mm512_test_epi8_mask(groups, groups));
        let bytes = _mm512_or_si512(
            groups,
            _mm512_maskz_mov_epi8(continued, _mm512_set1_epi8(i8::MIN)),
        );
        Some((bytes, (continued << 1) | (u64::MAX / 0xF)))
    }

    /// [`gap_varints`]' bytes packed together at the writer's cursor when
    /// `WRITE`, and the cursor moved past them.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    fn emit<const WRITE: bool>(bytes: __m512i, taken: u64, writer: &mut VarintWriter<'_>) {
        let len = taken.count_ones() as usize;
        if WRITE {
            let dst = &mut writer.out[writer.pos..writer.pos + len];
            let packed = _mm512_maskz_compress_epi8(taken, bytes);
            // SAFETY: the mask writes `len` bytes, `dst`'s length.
            unsafe {
                _mm512_mask_storeu_epi8(dst.as_mut_ptr().cast(), u64::MAX >> (64 - len), packed)
            };
        }
        writer.pos += len;
    }

    /// [`VarintWriter::put_zigzag_gaps`] when `WRITE`, else only its cursor
    /// moved ([`super::Lanes::zigzag_gaps_len`]): sixteen values a step in
    /// 32-bit lanes, each gap's 7-bit groups spread over its lane's bytes,
    /// the bytes the varints take compressed together into one store. A
    /// step whose gaps do not fit those lanes, and the last values short of
    /// sixteen, go through the portable writer.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    pub(super) fn gaps<const WRITE: bool>(
        values: &[u32],
        starts: &[u64],
        writer: &mut VarintWriter<'_>,
    ) {
        let words = |range: std::ops::Range<usize>, writer: &mut VarintWriter<'_>| {
            for k in range {
                let z = zigzag_gap(values, starts, k);
                match WRITE {
                    true => writer.put(z),
                    false => writer.pos += varint_len(z) as usize,
                }
            }
        };
        let sixteens = values.chunks_exact(16);
        let done = values.len() - sixteens.remainder().len();
        let mut last = 0;
        for (c, sixteen) in sixteens.enumerate() {
            let begins = (starts[c / 4] >> (c % 4 * 16)) as u16;
            match gap_varints(sixteen.try_into().expect("16 values"), begins, last) {
                Some((bytes, taken)) => emit::<WRITE>(bytes, taken, writer),
                None => words(16 * c..16 * c + 16, writer),
            }
            last = sixteen[15];
        }
        words(done..values.len(), writer);
    }

    /// Eight gaps of [`sum_zigzag_gaps`] summed in place. `sum` holds, in
    /// every lane, the running sum of the eight before, and becomes this
    /// eight's; `high` gathers every sum's bits.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    fn sum_eight(eight: &mut [u32; 8], begins: u8, sum: &mut __m512i, high: &mut __m512i) {
        let zero = _mm512_setzero_si512();
        // SAFETY: `eight` is 32 bytes long.
        let z = _mm512_cvtepu32_epi64(unsafe { _mm256_loadu_si256(eight.as_ptr().cast()) });
        let mut x = _mm512_xor_si512(
            _mm512_srli_epi64::<1>(z),
            _mm512_sub_epi64(zero, _mm512_and_si512(z, _mm512_set1_epi64(1))),
        );
        // After the step of distance `d`, lane `k` holds the gaps of lanes
        // `k − 2d + 1 ..= k` back to its run's start, and `begun` marks the
        // lanes with a start in that reach.
        let mut begun = begins;
        x = _mm512_mask_add_epi64(x, !begun, x, _mm512_alignr_epi64::<7>(x, zero));
        begun |= begun << 1;
        x = _mm512_mask_add_epi64(x, !begun, x, _mm512_alignr_epi64::<6>(x, zero));
        begun |= begun << 2;
        x = _mm512_mask_add_epi64(x, !begun, x, _mm512_alignr_epi64::<4>(x, zero));
        begun |= begun << 4;
        x = _mm512_mask_add_epi64(x, !begun, x, *sum);
        *high = _mm512_or_si512(*high, x);
        *sum = _mm512_permutexvar_epi64(_mm512_set1_epi64(7), x);
        // SAFETY: `eight` is 32 bytes long.
        unsafe { _mm256_storeu_si256(eight.as_mut_ptr().cast(), _mm512_cvtepi64_epi32(x)) };
    }

    /// [`super::Lanes::sum_zigzag_gaps`], eight gaps a step in 64-bit lanes:
    /// a segmented prefix sum (Hillis and Steele's, restarted at each run
    /// start), then the last eight's running sum added to the lanes before
    /// the first start. The sums wrap as the portable ones do, so the first
    /// one out of range shows in the bits above 32 that `high` gathers.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    pub(super) fn sum_zigzag_gaps(gaps: &mut [u32], starts: &[u64]) -> bool {
        let (mut sum, mut high) = (_mm512_setzero_si512(), _mm512_setzero_si512());
        let full = gaps.len() / 8;
        let mut eights = gaps.chunks_exact_mut(8);
        for (c, eight) in eights.by_ref().enumerate() {
            let eight = eight.try_into().expect("8 gaps");
            sum_eight(eight, begins(starts, c), &mut sum, &mut high);
        }
        let rest = eights.into_remainder();
        if !rest.is_empty() {
            let mut last = [0; 8];
            last[..rest.len()].copy_from_slice(rest);
            sum_eight(&mut last, begins(starts, full), &mut sum, &mut high);
            rest.copy_from_slice(&last[..rest.len()]);
        }
        _mm512_test_epi64_mask(high, _mm512_set1_epi64(!0xFFFF_FFFF)) == 0
    }
}

/// Treat an arbitrary byte buffer as little-endian `u32`s and delta-code it
/// into `out` (cleared first): the count of leftover tail bytes and the tail
/// itself, the word count as a varint, then each word's [`zigzag`]ged delta
/// from the word before (from 0 for the first) as a varint. This is what
/// lets the varint codec plug into the generic byte-oriented
/// [`Codec`](crate::Codec) API. The words are coded straight off the byte
/// slice, so a reused `out` makes the encode allocation-free.
pub fn encode_bytes_as_u32_delta_into(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let (words, tail) = data.split_at(data.len() / 4 * 4);
    out.push(tail.len() as u8);
    out.extend_from_slice(tail);
    write_varint(words.len() as u64 / 4, out);
    let mut prev = 0i64;
    for c in words.chunks_exact(4) {
        let v = i64::from(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
        write_varint(zigzag(v - prev), out);
        prev = v;
    }
}

/// Inverse of [`encode_bytes_as_u32_delta_into`], into a caller-owned buffer
/// (`out` is cleared first), decoding words straight into the output bytes.
/// Bytes after the last word are corrupt, as they are in the packed tile and
/// the broadcast message. On error `out` may hold a partial prefix; treat it
/// as garbage.
pub fn decode_u32_delta_to_bytes_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    out.clear();
    let Some((&tail_len, rest)) = data.split_first() else {
        return Err("empty varint-delta payload".to_string());
    };
    let Some((tail, words)) = rest.split_at_checked(usize::from(tail_len)) else {
        return Err("varint-delta payload shorter than declared tail".to_string());
    };
    let mut varints = Varints::new(words);
    let len = u32::try_from(varints.read()?).map_err(|_| "word count overflows u32")?;
    // `len` is wire-controlled: grow as we decode rather than trusting it
    // with one huge up-front reservation.
    let mut prev = 0u32;
    varints.run(len as usize, |z| {
        prev = i64::from(prev)
            .checked_add(unzigzag(z))
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| format!("a delta of {} leaves the u32 range", unzigzag(z)))?;
        out.extend_from_slice(&prev.to_le_bytes());
        Ok::<(), String>(())
    })?;
    if varints.remaining() != 0 {
        return Err(format!(
            "{} bytes after the last varint-delta word",
            varints.remaining()
        ));
    }
    out.extend_from_slice(tail);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `value` read back by [`Varints::read`], narrowed to `u32` as a
    /// caller that needs one does.
    fn read_u32(bytes: &[u8]) -> Result<u32, &'static str> {
        u32::try_from(Varints::new(bytes).read()?).map_err(|_| "varint overflows u32")
    }

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(buf.len() as u64, varint_len(v));
            let mut varints = Varints::new(&buf);
            assert_eq!(varints.read().unwrap(), v);
            assert_eq!(varints.pos(), buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflowing_final_byte_u32() {
        // Canonical u32::MAX: 5 bytes, final byte 0x0F.
        let mut buf = Vec::new();
        write_varint(u32::MAX.into(), &mut buf);
        assert_eq!(buf, [0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        assert_eq!(read_u32(&buf), Ok(u32::MAX));
        // Any payload bit above the top 4 in the 5th byte must error instead
        // of silently decoding to the same value as a canonical encoding.
        for last in [0x10u8, 0x1F, 0x70, 0x7F] {
            let bad = [0xFF, 0xFF, 0xFF, 0xFF, last];
            assert!(
                read_u32(&bad).is_err(),
                "final byte {last:#x} should overflow"
            );
        }
        // The largest valid final byte still round-trips.
        assert_eq!(read_u32(&[0x80, 0x80, 0x80, 0x80, 0x0F]), Ok(0x0F << 28));
    }

    #[test]
    fn varint_rejects_overflowing_final_byte_u64() {
        // Canonical u64::MAX: 10 bytes, final byte 0x01.
        let mut buf = Vec::new();
        write_varint(u64::MAX, &mut buf);
        assert_eq!(buf.len(), 10);
        assert_eq!(*buf.last().unwrap(), 0x01);
        assert_eq!(Varints::new(&buf).read(), Ok(u64::MAX));
        // 10th byte may only carry the top bit.
        for last in [0x02u8, 0x03, 0x7E, 0x7F] {
            let mut bad = vec![0x80u8; 9];
            bad.push(last);
            assert!(
                Varints::new(&bad).read().is_err(),
                "final byte {last:#x} should overflow"
            );
        }
        // 1 << 63 (only the top bit set) is the boundary case that must pass.
        let mut top = vec![0x80u8; 9];
        top.push(0x01);
        assert_eq!(Varints::new(&top).read(), Ok(1u64 << 63));
    }

    #[test]
    fn varint_truncated_is_error() {
        let mut buf = Vec::new();
        write_varint(300, &mut buf);
        buf.pop();
        assert!(Varints::new(&buf).read().is_err());
        assert!(read_u32(&buf).is_err());
    }

    fn delta_roundtrip(data: &[u8]) -> Result<Vec<u8>, String> {
        let (mut coded, mut back) = (vec![0xAA; 3], vec![0xBB; 5]); // both are cleared
        encode_bytes_as_u32_delta_into(data, &mut coded);
        decode_u32_delta_to_bytes_into(&coded, &mut back)?;
        Ok(back)
    }

    #[test]
    fn bytes_adapter_roundtrip_including_odd_lengths() {
        for len in [0usize, 1, 3, 4, 5, 8, 13, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            assert_eq!(delta_roundtrip(&data).unwrap(), data, "len {len}");
        }
        // The widest deltas, both ways.
        let extremes = [0u32, u32::MAX, 0, u32::MAX, u32::MAX, 1];
        let data: Vec<u8> = extremes.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(delta_roundtrip(&data).unwrap(), data);
    }

    #[test]
    fn corrupt_bytes_adapter_is_error() {
        let decode = |data: &[u8]| decode_u32_delta_to_bytes_into(data, &mut Vec::new());
        assert!(decode(&[]).is_err());
        assert!(decode(&[10, 1, 2]).is_err());
        // One word whose delta leaves the u32 range, either way.
        assert!(decode(&[0, 1, 1]).is_err()); // -1
        let mut past = vec![0, 2, 0xFE, 0xFF, 0xFF, 0xFF, 0x1F]; // u32::MAX, then +1
        write_varint(zigzag(1), &mut past);
        assert!(decode(&past).is_err());
        past.truncate(7);
        assert!(decode(&past).is_err(), "one word short");
    }

    /// Bytes past the last word are corrupt: a decoder that stops at the
    /// word count would read `[0, 0, 5, 6, 7]` as the empty payload.
    #[test]
    fn the_varint_delta_decoder_rejects_bytes_after_the_last_word() {
        let decode = |data: &[u8]| decode_u32_delta_to_bytes_into(data, &mut Vec::new());
        assert_eq!(delta_roundtrip(&[]), Ok(Vec::new()));
        assert!(
            decode(&[0, 0, 5, 6, 7]).is_err(),
            "three bytes after no words"
        );
        assert!(decode(&[0, 1, 2, 0]).is_err(), "a 0 after one word");
        let mut coded = Vec::new();
        encode_bytes_as_u32_delta_into(&[1, 2, 3, 4, 5, 6, 7, 8, 9], &mut coded);
        assert!(decode(&coded).is_ok());
        coded.push(0);
        assert!(decode(&coded).is_err(), "a 0 after the words");
    }

    /// The word count is a varint like any other: only its shortest form
    /// is read, so the overlong 0 (`80 00`) does not stand for no words.
    #[test]
    fn the_varint_delta_decoder_rejects_an_overlong_word_count() {
        let decode = |data: &[u8]| decode_u32_delta_to_bytes_into(data, &mut Vec::new());
        assert_eq!(decode(&[0, 0x00]), Ok(()));
        assert!(decode(&[0, 0x80, 0x00]).is_err());
        assert!(decode(&[1, 7, 0x81, 0x00, 0x02]).is_err());
        assert!(
            decode(&[0, 0xFF, 0xFF, 0xFF, 0xFF, 0x10]).is_err(),
            "past u32"
        );
    }

    /// In every lane width this CPU runs, `Varints::run` over `n` varints
    /// and `n` calls of `Varints::read` agree on `bytes`: both fail, or both
    /// yield the same values and stop at the same byte. `Varints::run_u32`
    /// agrees too where every value fits `u32`, gives up (`Ok(false)`) where
    /// one does not, and never succeeds where the reference fails.
    fn assert_run_agrees(bytes: &[u8], n: usize, what: &str) {
        let mut by_byte = Lanes::WORD.varints(bytes);
        let want: Result<Vec<u64>, _> = (0..n).map(|_| by_byte.read()).collect();
        for lanes in Lanes::all() {
            let what = format!("{what} in {lanes:?}");
            let mut by_run = lanes.varints(bytes);
            let mut got = Vec::new();
            let verdict = by_run.run(n, |v| {
                got.push(v);
                Ok::<(), &str>(())
            });
            let mut by_u32 = lanes.varints(bytes);
            let mut slots = vec![0xDEAD_BEEF; n + 7];
            let verdict_u32 = by_u32.run_u32(&mut slots);
            match &want {
                Ok(want) => {
                    assert_eq!(verdict, Ok(()), "{what}");
                    assert_eq!(&got, want, "{what}");
                    assert_eq!(by_run.pos, by_byte.pos, "{what}");
                    if want.iter().all(|&v| v <= u64::from(u32::MAX)) {
                        assert_eq!(verdict_u32, Ok(true), "{what}: as u32");
                        let slots: Vec<u64> = slots[..n].iter().map(|&v| v.into()).collect();
                        assert_eq!(&slots, want, "{what}: as u32");
                        assert_eq!(by_u32.pos, by_byte.pos, "{what}: as u32");
                    } else {
                        assert_eq!(verdict_u32, Ok(false), "{what}: as u32");
                    }
                }
                Err(_) => {
                    assert!(verdict.is_err(), "{what}: {got:?} from {bytes:02x?}");
                    assert_ne!(verdict_u32, Ok(true), "{what}: as u32");
                }
            }
        }
    }

    /// The smallest and the largest value of each varint width.
    fn widths() -> impl Iterator<Item = (usize, [u64; 2])> {
        (1..=10usize).map(|width| {
            let low = if width == 1 {
                0
            } else {
                1u64 << (7 * (width - 1))
            };
            let high = if width == 10 {
                u64::MAX
            } else {
                (1u64 << (7 * width)) - 1
            };
            (width, [low, high])
        })
    }

    /// Every varint width, shortest and longest value, at every offset
    /// modulo the 64-byte window (and so the 8-byte one), followed by short
    /// varints — enough for a window of its own — or by the end of the
    /// bytes; its non-shortest twin (a last byte of 0) and a tenth byte
    /// past 64 bits in the same places.
    #[test]
    fn every_lane_width_agrees_on_every_width_at_every_offset() {
        for (width, values) in widths() {
            for value in values {
                let mut varint = Vec::new();
                write_varint(value, &mut varint);
                assert_eq!(varint.len(), width);
                let mut long = varint.clone();
                *long.last_mut().unwrap() |= 0x80;
                long.push(0);
                let mut over = vec![0xFF; 9];
                over.push(2);
                for offset in 0..64 {
                    for tail in [0, 1, 3, 9, 20, 64] {
                        for (kind, body) in [("varint", &varint), ("long", &long), ("over", &over)]
                        {
                            let mut bytes = vec![0x05; offset];
                            bytes.extend_from_slice(body);
                            bytes.extend(std::iter::repeat_n(0x7F, tail));
                            let n = offset + 1 + tail;
                            let what = format!("{kind} {value} at {offset}, {tail} after");
                            assert_run_agrees(&bytes, n, &what);
                            assert_run_agrees(&bytes, n + 1, &format!("{what}, one too many"));
                        }
                    }
                }
            }
        }
    }

    /// A window whose eight bytes all continue holds no varint end: the
    /// varint goes through `Varints::read`, which finishes it at nine or ten
    /// bytes, or finds it truncated or too wide.
    #[test]
    fn a_window_of_continued_bytes_falls_back_to_the_per_byte_decoder() {
        for tail in [
            &[][..],
            &[0x01],
            &[0x80],
            &[0x80, 0x01],
            &[0x80, 0x02],
            &[0x00],
            &[0x7F, 0x05],
        ] {
            let mut bytes = vec![0x80; 8];
            bytes.extend_from_slice(tail);
            for n in 1..=3 {
                assert_run_agrees(
                    &bytes,
                    n,
                    &format!("8 continued, then {tail:02x?}, {n} varints"),
                );
            }
        }
        let mut run_of_widest = Vec::new();
        for _ in 0..5 {
            write_varint(u64::MAX, &mut run_of_widest);
        }
        assert_run_agrees(&run_of_widest, 5, "five ten-byte varints");
    }

    /// Bytes drawn from the values that steer a varint decoder — 0, 1, a
    /// continued 0, a continued 1, all ones — short and long enough for
    /// several 64-byte windows, the long ones mostly stops so that sixteen
    /// varints end in a window.
    #[test]
    fn every_lane_width_agrees_on_random_bodies() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alphabet = [0x00, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFF];
        let stops = [0x01, 0x02, 0x7F, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFF, 0x00];
        for case in 0..20_000 {
            let (len, n, alphabet) = match case % 2 {
                0 => (next() % 24, next() % 12, &alphabet[..]),
                _ => (next() % 200, next() % 160, &stops[..]),
            };
            let body: Vec<u8> = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect();
            let n = n as usize;
            assert_run_agrees(&body, n, &format!("case {case}, {n} varints: {body:02x?}"));
        }
    }

    /// Sixteen varints of one to four bytes in a 64-byte window, one of them
    /// replaced in each of the sixteen lanes by a varint the 64-byte step
    /// must leave to the portable path: a non-shortest one (of each width),
    /// a five-byte one that fits `u32`, one that does not, and one past 64
    /// bits.
    #[test]
    fn a_bad_or_wide_varint_in_each_of_the_sixteen_lanes_gets_the_reference_verdict() {
        let odd: [&[u8]; 7] = [
            &[0x80, 0x00],
            &[0xFF, 0x80, 0x00],
            &[0x81, 0x80, 0x80, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x00],
            &[0x80, 0x80, 0x80, 0x80, 0x01],
            &[0x80, 0x80, 0x80, 0x80, 0x7F],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
        ];
        for lane in 0..16 {
            for (kind, varint) in odd.iter().enumerate() {
                let mut bytes = Vec::new();
                for k in 0..40u64 {
                    if k == lane {
                        bytes.extend_from_slice(varint);
                    } else {
                        write_varint(k << (7 * (k % 4)), &mut bytes);
                    }
                }
                for n in [16, 17, 40] {
                    let what = format!("odd varint {kind} in lane {lane}, {n} varints");
                    assert_run_agrees(&bytes, n, &what);
                }
            }
        }
    }

    /// Varints of one to four bytes cut at every byte of their first two
    /// 64-byte windows, and read one varint past the cut as well.
    #[test]
    fn a_cut_at_every_byte_of_a_window_gets_the_reference_verdict() {
        let mut bytes = Vec::new();
        let mut count = 0;
        while bytes.len() < 140 {
            write_varint((count * 37) << (7 * (count % 4)), &mut bytes);
            count += 1;
        }
        for cut in 0..=bytes.len() {
            let varints = whole_varints(&bytes[..cut]);
            for n in [varints, varints + 1, count as usize] {
                assert_run_agrees(&bytes[..cut], n, &format!("cut at {cut}, {n} varints"));
            }
        }
    }

    /// How many whole varints `bytes` holds, by the per-byte reader.
    fn whole_varints(bytes: &[u8]) -> usize {
        let mut varints = Lanes::WORD.varints(bytes);
        let mut n = 0;
        while varints.read().is_ok() {
            n += 1;
        }
        n
    }

    /// The per-byte reference of the gap kernels: each value's zig-zag gap
    /// from the value before it, from 0 where a run begins, appended by
    /// `write_varint`.
    fn gaps_per_byte(values: &[u32], starts: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut prev = 0i64;
        for (k, &value) in values.iter().enumerate() {
            if starts[k / 64] >> (k % 64) & 1 == 1 {
                prev = 0;
            }
            let gap = i64::from(value) - prev;
            prev = i64::from(value);
            write_varint(((gap << 1) ^ (gap >> 63)) as u64, &mut out);
        }
        out
    }

    /// The per-byte reference of `Lanes::sum_zigzag_gaps`: checked sums,
    /// run by run; `None` at the first that leaves `u32`.
    fn sums_per_value(gaps: &[u32], starts: &[u64]) -> Option<Vec<u32>> {
        let mut sum = 0i64;
        let mut out = Vec::new();
        for (k, &z) in gaps.iter().enumerate() {
            if starts[k / 64] >> (k % 64) & 1 == 1 {
                sum = 0;
            }
            let gap = (z >> 1) as i64 ^ -((z & 1) as i64);
            sum = sum
                .checked_add(gap)
                .filter(|sum| (0..=i64::from(u32::MAX)).contains(sum))?;
            out.push(sum as u32);
        }
        Some(out)
    }

    /// In every lane width this CPU runs, the gap writer writes the per-byte
    /// reference's bytes, with or without room after them, its size is their count,
    /// and where every gap fits `u32` the gap summer turns them back into
    /// `values`.
    fn assert_gap_kernels_agree(values: &[u32], starts: &[u64], what: &str) {
        let want = gaps_per_byte(values, starts);
        let mut reader = Lanes::WORD.varints(&want);
        let gaps: Option<Vec<u32>> = values
            .iter()
            .map(|_| u32::try_from(reader.read().unwrap()).ok())
            .collect();
        for lanes in Lanes::all() {
            let what = format!("{what} in {lanes:?}");
            assert_eq!(
                lanes.zigzag_gaps_len(values, starts),
                want.len() as u64,
                "{what}"
            );
            for room in [0, 1, 63, 64] {
                let mut out = vec![0xEE; want.len() + room];
                let mut writer = VarintWriter::new(&mut out);
                writer.put_zigzag_gaps(lanes, values, starts);
                assert_eq!(writer.pos(), want.len(), "{what}, {room} bytes of room");
                assert_eq!(&out[..want.len()], want, "{what}, {room} bytes of room");
            }
            if let Some(gaps) = &gaps {
                let mut sums = gaps.clone();
                assert!(lanes.sum_zigzag_gaps(&mut sums, starts), "{what}: sums");
                assert_eq!(sums, values, "{what}: sums");
            }
        }
    }

    /// The gap kernels on every gap width, as a first value of a run and
    /// from the value before, both signs, at every offset modulo 64 values,
    /// runs starting everywhere, nowhere, and at random.
    #[test]
    fn the_gap_kernels_agree_with_the_per_byte_reference_at_every_offset() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let ends = [
            0u32,
            1,
            63,
            64,
            127,
            8191,
            8192,
            1 << 20,
            1 << 27,
            1 << 28,
            1 << 31,
            u32::MAX,
        ];
        for &end in &ends {
            for offset in 0..64 {
                for len in [offset + 1, offset + 2, offset + 9, 80, 130usize] {
                    for layout in 0..4 {
                        let values: Vec<u32> = (0..len)
                            .map(|k| match k.cmp(&offset) {
                                std::cmp::Ordering::Equal => end,
                                std::cmp::Ordering::Greater if layout == 3 => u32::MAX - k as u32,
                                _ => k as u32 * 3,
                            })
                            .collect();
                        let mut starts = vec![0u64; len.div_ceil(64)];
                        for k in 0..len {
                            let start = match layout {
                                0 => k == 0,
                                1 => true,
                                _ => next() % 3 == 0,
                            };
                            starts[k / 64] |= u64::from(start) << (k % 64);
                        }
                        let what = format!("{end} at {offset} of {len}, layout {layout}");
                        assert_gap_kernels_agree(&values, &starts, &what);
                    }
                }
            }
        }
        for case in 0..2_000 {
            let len = (next() % 300) as usize;
            let shift = next() % 33;
            let values: Vec<u32> = (0..len).map(|_| (next() >> shift) as u32).collect();
            let starts: Vec<u64> = (0..len.div_ceil(64)).map(|_| next() & next()).collect();
            assert_gap_kernels_agree(&values, &starts, &format!("random case {case}"));
        }
        assert_eq!(run_starts(&[0, 0, 3, 3, 70, 71, 71], 71), [0b1001, 1 << 6]);
    }

    /// In every lane width this CPU runs, the gap summer gives the sums and
    /// the verdict of `sums_per_value`.
    fn assert_sums_agree(gaps: &[u32], starts: &[u64], what: &str) {
        let want = sums_per_value(gaps, starts);
        for lanes in Lanes::all() {
            let mut sums = gaps.to_vec();
            let verdict = lanes.sum_zigzag_gaps(&mut sums, starts);
            assert_eq!(verdict, want.is_some(), "{what} in {lanes:?}");
            if let Some(want) = &want {
                assert_eq!(&sums, want, "{what} in {lanes:?}");
            }
        }
    }

    /// The gap summer's verdict is the checked per-value one: a run's sum
    /// that dips below 0 or climbs past `u32::MAX` fails in every lane and
    /// at every position, one that touches either end does not, and a run
    /// start puts the sum back at 0.
    #[test]
    fn the_gap_summer_finds_the_first_sum_out_of_range_exactly() {
        let z = |gap: i64| ((gap << 1) ^ (gap >> 63)) as u32;
        let widest = i64::from(i32::MAX);
        for len in [4usize, 8, 9, 16, 70] {
            let one_run: Vec<u64> = (0..len.div_ceil(64)).map(|w| u64::from(w == 0)).collect();
            for at in 3..len {
                // Up from 1 to 0 or -1, and from 2^32 - 2 to the top or past.
                for (first, second, step, ok) in [
                    (1, 0, -1, true),
                    (1, 0, -2, false),
                    (widest, widest, 1, true),
                    (widest, widest, 2, false),
                ] {
                    let mut gaps = vec![z(0); len];
                    gaps[0] = z(first);
                    gaps[1] = z(second);
                    gaps[at] = z(step);
                    let what = format!("{first}, {second} then {step} at {at} of {len}");
                    assert_eq!(sums_per_value(&gaps, &one_run).is_some(), ok, "{what}");
                    assert_sums_agree(&gaps, &one_run, &what);
                    // A run that starts at `at` starts from 0.
                    let mut restart = one_run.clone();
                    restart[at / 64] |= 1 << (at % 64);
                    assert_sums_agree(&gaps, &restart, &format!("{what}, restarted there"));
                }
            }
        }
        // Random gaps near the ends: every verdict and sum is the reference's.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..5_000 {
            let len = (next() % 90) as usize;
            let gaps: Vec<u32> = (0..len)
                .map(|_| match next() % 4 {
                    0 => next() as u32,
                    1 => z((next() % 5) as i64 - 2),
                    _ => z(i64::from(i32::MAX) - (next() % 3) as i64),
                })
                .collect();
            let starts: Vec<u64> = (0..len.div_ceil(64))
                .map(|_| next() & next() & next())
                .collect();
            assert_sums_agree(&gaps, &starts, &format!("case {case}"));
        }
    }

    /// Say so when this CPU has no 64-byte lanes: the lane oracles above then
    /// hold the portable path alone to the reference.
    #[test]
    fn the_lane_oracles_name_the_lanes_they_ran() {
        let ran: Vec<Lanes> = Lanes::all().collect();
        assert_eq!(ran[0], Lanes::WORD);
        assert_eq!(Lanes::widest(), *ran.last().unwrap());
        if Lanes::avx512().is_none() {
            eprintln!(
                "64-byte lanes skipped: this CPU lacks AVX-512F/BW/VBMI/VBMI2, BMI2 or POPCNT"
            );
        }
    }

    /// `VarintWriter` writes what `write_varint` appends, for every width at
    /// every offset, whether or not eight bytes of room follow.
    #[test]
    fn the_word_writer_writes_the_per_byte_bytes() {
        for (width, values) in widths() {
            for value in values {
                for offset in 0..8 {
                    for room in [0, 1, 7, 8] {
                        let mut want = vec![0x05; offset];
                        write_varint(value, &mut want);
                        want.extend(std::iter::repeat_n(0, room));
                        let mut out = vec![0xEE; offset + width + room];
                        out[..offset].fill(0x05);
                        out[offset + width..].fill(0);
                        let mut writer = VarintWriter {
                            out: &mut out,
                            pos: offset,
                        };
                        writer.put(value);
                        assert_eq!(writer.pos, offset + width);
                        let pos = writer.pos;
                        writer.out[pos..].fill(0);
                        assert_eq!(out, want, "{value} at {offset}, {room} bytes of room");
                        assert_eq!(varint_len(value), width as u64);
                    }
                }
            }
        }
    }
}
