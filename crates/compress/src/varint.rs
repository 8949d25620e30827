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
}

/// A cursor over a run of LEB128 varints. Every read accepts only the
/// shortest encoding of a value that fits 64 bits.
#[derive(Clone)]
pub struct Varints<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Varints<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
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
    /// [`Varints::read`]: a window at a time, and a varint that does not end
    /// in one (nine or ten bytes, or within eight bytes of the end) through
    /// [`Varints::read`]. The first error, the reader's or `each`'s, ends
    /// the run.
    #[inline]
    pub fn run<E: From<&'static str>>(
        &mut self,
        n: usize,
        mut each: impl FnMut(u64) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut left = n;
        while left > 0 {
            let Some((groups, shape, count)) = self.window(left)? else {
                each(self.read()?)?;
                left -= 1;
                continue;
            };
            for k in 0..count {
                each(shape.cut(groups, k))?;
            }
            left -= count;
        }
        Ok(())
    }

    /// Move past the next `n` varints, each checked as [`Varints::run`]
    /// checks it.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Result<(), &'static str> {
        self.run(n, |_| Ok(()))
    }

    /// [`Varints::run`] into `out`, as `u32`s: the next `out.len() - 7`
    /// varints, the seven slots past them scratch. A window whose varints
    /// are all four bytes or narrower fills eight slots unconditionally and
    /// keeps the first `count`. `Ok(false)`, the cursor somewhere in the
    /// run, when a varint does not fit `u32`.
    ///
    /// # Panics
    /// Panics if `out` is shorter than seven slots.
    #[inline]
    pub fn run_u32(&mut self, out: &mut [u32]) -> Result<bool, &'static str> {
        let n = out.len() - 7;
        let mut i = 0;
        while i < n {
            let Some((groups, shape, count)) = self.window(n - i)? else {
                let Ok(value) = u32::try_from(self.read()?) else {
                    return Ok(false);
                };
                out[i] = value;
                i += 1;
                continue;
            };
            let slots: &mut [u32; 8] = (&mut out[i..i + 8]).try_into().expect("8 slots");
            if count <= usize::from(shape.narrow) {
                for (k, slot) in slots.iter_mut().enumerate() {
                    *slot = shape.cut(groups, k) as u32;
                }
            } else {
                for (k, slot) in slots.iter_mut().enumerate().take(count) {
                    let Ok(value) = u32::try_from(shape.cut(groups, k)) else {
                        return Ok(false);
                    };
                    *slot = value;
                }
            }
            i += count;
        }
        Ok(true)
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
/// On error `out` may hold a partial prefix; treat it as garbage.
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

    /// `Varints::run` over `n` varints and `n` calls of `Varints::read` agree
    /// on `bytes`: both fail, or both yield the same values and stop at the
    /// same byte. `Varints::run_u32` agrees too where every value fits
    /// `u32`, gives up (`Ok(false)`) where one does not, and never succeeds
    /// where the reference fails.
    fn assert_run_agrees(bytes: &[u8], n: usize, what: &str) {
        let mut by_word = Varints::new(bytes);
        let mut got = Vec::new();
        let verdict = by_word.run(n, |v| {
            got.push(v);
            Ok::<(), &str>(())
        });
        let mut by_u32 = Varints::new(bytes);
        let mut slots = vec![0xDEAD_BEEF; n + 7];
        let verdict_u32 = by_u32.run_u32(&mut slots);
        let mut by_byte = Varints::new(bytes);
        let want: Result<Vec<u64>, _> = (0..n).map(|_| by_byte.read()).collect();
        match want {
            Ok(want) => {
                assert_eq!(verdict, Ok(()), "{what}");
                assert_eq!(got, want, "{what}");
                assert_eq!(by_word.pos, by_byte.pos, "{what}");
                if want.iter().all(|&v| v <= u64::from(u32::MAX)) {
                    assert_eq!(verdict_u32, Ok(true), "{what}: as u32");
                    let slots: Vec<u64> = slots[..n].iter().map(|&v| v.into()).collect();
                    assert_eq!(slots, want, "{what}: as u32");
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
    /// modulo the window, followed by short varints or by the end of the
    /// bytes; its non-shortest twin (a last byte of 0) and a tenth byte
    /// past 64 bits in the same places.
    #[test]
    fn the_word_decoder_agrees_on_every_width_at_every_offset() {
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
                for offset in 0..8 {
                    for tail in [0, 1, 3, 9] {
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
    /// continued 0, a continued 1, all ones.
    #[test]
    fn the_word_decoder_agrees_on_random_bodies() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alphabet = [0x00, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFF];
        for case in 0..20_000 {
            let len = (next() % 24) as usize;
            let body: Vec<u8> = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect();
            let n = (next() % 12) as usize;
            assert_run_agrees(&body, n, &format!("case {case}, {n} varints: {body:02x?}"));
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
