//! LEB128 varint and delta coding of 32-bit integer streams.
//!
//! CSR column arrays are sorted runs of vertex ids with small gaps; delta-coding the
//! gaps and varint-encoding the result is the classic graph-compression trick
//! (WebGraph-style). GraphH's cache can use it as an alternative to general-purpose
//! codecs; it is exercised by the ablation benchmarks.

/// Append a LEB128-encoded `u32` to `out`.
pub fn write_varint(mut value: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128-encoded `u32` from `data[*pos..]`, advancing `pos`.
pub fn read_varint(data: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err("varint truncated".to_string());
        };
        *pos += 1;
        if shift >= 35 {
            return Err("varint too long".to_string());
        }
        // The 5th byte (shift 28) can only contribute u32's top 4 bits; any
        // higher payload bit would be shifted out silently, making distinct
        // non-canonical encodings decode to the same value.
        if shift == 28 && byte & 0x70 != 0 {
            return Err("varint overflows u32".to_string());
        }
        value |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Append a LEB128-encoded `u64` to `out`.
pub fn write_varint64(mut value: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128-encoded `u64` from `data[*pos..]`, advancing `pos`.
pub fn read_varint64(data: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err("varint truncated".to_string());
        };
        *pos += 1;
        if shift >= 70 {
            return Err("varint too long".to_string());
        }
        // The 10th byte (shift 63) can only contribute u64's top bit; reject
        // overflowing payload bits instead of dropping them.
        if shift == 63 && byte & 0x7E != 0 {
            return Err("varint overflows u64".to_string());
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Zig-zag encode a signed delta (small magnitudes → small varints).
#[inline]
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Delta-code one value against `prev` and append its zig-zag varint.
#[inline]
fn write_delta(v: u32, prev: &mut i64, out: &mut Vec<u8>) {
    let delta = i64::from(v) - *prev;
    *prev = i64::from(v);
    write_varint64(zigzag(delta), out);
}

/// Read one zig-zag varint delta and fold it into `prev`, range-checked.
#[inline]
fn read_delta(data: &[u8], pos: &mut usize, prev: &mut i64) -> Result<u32, String> {
    *prev += unzigzag(read_varint64(data, pos)?);
    if !(0..=i64::from(u32::MAX)).contains(prev) {
        return Err(format!("decoded value {prev} out of u32 range"));
    }
    Ok(*prev as u32)
}

/// Treat an arbitrary byte buffer as little-endian `u32`s (padding the tail with a
/// recorded number of leftover bytes) and delta-encode it. This is what lets the
/// varint codec plug into the generic byte-oriented [`Codec`](crate::Codec) API.
pub fn encode_bytes_as_u32_delta(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_bytes_as_u32_delta_into(data, &mut out);
    out
}

/// [`encode_bytes_as_u32_delta`] into a caller-owned buffer (`out` is cleared
/// first) with no intermediate word vector: the words are delta-coded
/// straight off the byte slice, so a reused `out` makes the encode
/// allocation-free.
pub fn encode_bytes_as_u32_delta_into(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let full_words = data.len() / 4;
    let tail = &data[full_words * 4..];
    out.push(tail.len() as u8);
    out.extend_from_slice(tail);
    write_varint(full_words as u32, out);
    let mut prev: i64 = 0;
    for c in data[..full_words * 4].chunks_exact(4) {
        let v = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        write_delta(v, &mut prev, out);
    }
}

/// Inverse of [`encode_bytes_as_u32_delta`].
pub fn decode_u32_delta_to_bytes(data: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    decode_u32_delta_to_bytes_into(data, &mut out)?;
    Ok(out)
}

/// [`decode_u32_delta_to_bytes`] into a caller-owned buffer (`out` is cleared
/// first), decoding words straight into the output bytes. On error `out` may
/// hold a partial prefix; treat it as garbage.
pub fn decode_u32_delta_to_bytes_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), String> {
    out.clear();
    let Some(&tail_len) = data.first() else {
        return Err("empty varint-delta payload".to_string());
    };
    let tail_len = tail_len as usize;
    if data.len() < 1 + tail_len {
        return Err("varint-delta payload shorter than declared tail".to_string());
    }
    let words = &data[1 + tail_len..];
    let mut pos = 0usize;
    let len = read_varint(words, &mut pos)? as usize;
    // `len` is wire-controlled: grow as we decode rather than trusting it
    // with one huge up-front reservation.
    let mut prev: i64 = 0;
    for _ in 0..len {
        let v = read_delta(words, &mut pos, &mut prev)?;
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&data[1..1 + tail_len]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u32, 1, 127, 128, 16_383, 16_384, u32::MAX / 2, u32::MAX] {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overflowing_final_byte_u32() {
        // Canonical u32::MAX: 5 bytes, final byte 0x0F.
        let mut buf = Vec::new();
        write_varint(u32::MAX, &mut buf);
        assert_eq!(buf, [0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        // Any payload bit above the top 4 in the 5th byte must error instead
        // of silently decoding to the same value as a canonical encoding.
        for last in [0x10u8, 0x1F, 0x70, 0x7F] {
            let bad = [0xFF, 0xFF, 0xFF, 0xFF, last];
            let mut pos = 0;
            assert!(
                read_varint(&bad, &mut pos).is_err(),
                "final byte {last:#x} should overflow"
            );
        }
        // The largest valid final byte still round-trips.
        let mut pos = 0;
        assert_eq!(
            read_varint(&[0x80, 0x80, 0x80, 0x80, 0x0F], &mut pos).unwrap(),
            0x0F << 28
        );
    }

    #[test]
    fn varint_rejects_overflowing_final_byte_u64() {
        // Canonical u64::MAX: 10 bytes, final byte 0x01.
        let mut buf = Vec::new();
        write_varint64(u64::MAX, &mut buf);
        assert_eq!(buf.len(), 10);
        assert_eq!(*buf.last().unwrap(), 0x01);
        let mut pos = 0;
        assert_eq!(read_varint64(&buf, &mut pos).unwrap(), u64::MAX);
        // 10th byte may only carry the top bit.
        for last in [0x02u8, 0x03, 0x7E, 0x7F] {
            let mut bad = vec![0x80u8; 9];
            bad.push(last);
            let mut pos = 0;
            assert!(
                read_varint64(&bad, &mut pos).is_err(),
                "final byte {last:#x} should overflow"
            );
        }
        // 1 << 63 (only the top bit set) is the boundary case that must pass.
        let mut top = vec![0x80u8; 9];
        top.push(0x01);
        let mut pos = 0;
        assert_eq!(read_varint64(&top, &mut pos).unwrap(), 1u64 << 63);
    }

    #[test]
    fn varint_truncated_is_error() {
        let mut buf = Vec::new();
        write_varint(300, &mut buf);
        buf.pop();
        let mut pos = 0;
        assert!(read_varint(&buf, &mut pos).is_err());
    }

    #[test]
    fn bytes_adapter_roundtrip_including_odd_lengths() {
        for len in [0usize, 1, 3, 4, 5, 8, 13, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let enc = encode_bytes_as_u32_delta(&data);
            assert_eq!(decode_u32_delta_to_bytes(&enc).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn corrupt_bytes_adapter_is_error() {
        assert!(decode_u32_delta_to_bytes(&[]).is_err());
        assert!(decode_u32_delta_to_bytes(&[10, 1, 2]).is_err());
    }
}
