//! Byte encoder for the streamed model JSON.
//!
//! A trained model is tens of millions of small numbers: sample ids,
//! bitset words, exclusion-list gaps and list indices. Formatting each
//! one through `core::fmt` and an `io::Write` adapter cost more than
//! building the BSTs. This encoder builds the digits of a decimal `u64`
//! or a lowercase hex value in a stack buffer, appends them and the fixed
//! JSON punctuation to one reusable `Vec<u8>`, and [`spill`] hands that
//! buffer to the sink with a single `write_all` each time it passes
//! [`FLUSH_BYTES`]. No model-sized buffer exists: the buffer holds at
//! most `FLUSH_BYTES` plus the one element (list, bitset or index row)
//! appended last.
//!
//! The `push_*` functions are the single implementation of the number
//! and gap-hex wire forms; the tree serializer's gap-hex strings
//! (`bst::gap_hex`) use them too.

use microarray::ItemId;
use std::io;

/// Buffered bytes that trigger one `write_all` to the sink.
pub(crate) const FLUSH_BYTES: usize = 64 << 10;

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends the decimal digits of `x`.
pub(crate) fn push_dec(out: &mut Vec<u8>, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends the lowercase hex digits of `x`, without a prefix.
fn push_hex(out: &mut Vec<u8>, mut x: u64) {
    let mut digits = [0u8; 16];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = HEX_DIGITS[(x & 0xf) as usize];
        x >>= 4;
        if x == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends the gap-hex encoding of an ascending item list: the first id
/// in hex, then the hex gap to each successor, comma-separated —
/// `[3, 10, 11]` → `3,7,1`.
pub(crate) fn push_gap_hex(out: &mut Vec<u8>, items: &[ItemId]) {
    let Some((&first, rest)) = items.split_first() else {
        return;
    };
    push_hex(out, first as u64);
    let mut prev = first;
    for &id in rest {
        debug_assert!(id > prev, "exclusion list not strictly ascending");
        let gap = id - prev;
        if gap < 16 {
            // Most gaps are one digit: one two-byte append.
            out.extend_from_slice(&[b',', HEX_DIGITS[gap]]);
        } else {
            out.push(b',');
            push_hex(out, gap as u64);
        }
        prev = id;
    }
}

/// Appends `[x0,x1,...]` in decimal.
pub(crate) fn push_dec_seq(out: &mut Vec<u8>, xs: impl IntoIterator<Item = u64>) {
    out.push(b'[');
    for (i, x) in xs.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_dec(out, x);
    }
    out.push(b']');
}

/// Hands `buf` to `sink` in one `write_all` once it has passed
/// [`FLUSH_BYTES`], and empties it. Writers call this after each element
/// and `write_all` the remainder at the end.
pub(crate) fn spill<W: io::Write>(buf: &mut Vec<u8>, sink: &mut W) -> io::Result<()> {
    if buf.len() >= FLUSH_BYTES {
        sink.write_all(buf)?;
        buf.clear();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boundaries() -> Vec<u64> {
        let mut xs = vec![0, 1, u64::MAX, u64::MAX - 1];
        for shift in (4..64).step_by(4) {
            xs.extend([(1u64 << shift) - 1, 1u64 << shift]);
        }
        let mut p = 1u64;
        while let Some(next) = p.checked_mul(10) {
            xs.extend([p - 1, p, next - 1]);
            p = next;
        }
        xs.push(p);
        xs
    }

    #[test]
    fn digits_match_std_formatting_at_every_boundary() {
        for x in boundaries() {
            let (mut dec, mut hex) = (Vec::new(), Vec::new());
            push_dec(&mut dec, x);
            push_hex(&mut hex, x);
            assert_eq!(String::from_utf8(dec).unwrap(), x.to_string());
            assert_eq!(String::from_utf8(hex).unwrap(), format!("{x:x}"));
        }
    }

    #[test]
    fn spill_writes_only_past_the_bound() {
        let (mut buf, mut sink) = (vec![b'x'; FLUSH_BYTES - 1], Vec::new());
        spill(&mut buf, &mut sink).unwrap();
        assert!(sink.is_empty());
        buf.push(b'y');
        spill(&mut buf, &mut sink).unwrap();
        assert_eq!((buf.len(), sink.len()), (0, FLUSH_BYTES));
    }
}
