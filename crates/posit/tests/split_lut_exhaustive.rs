//! Exhaustive split-table equivalence: the regime-prefix + direct-fraction
//! scheme must reproduce the bit-field decode on **every** encoding of the
//! 13–16-bit formats it serves — the same contract the monolithic LUT
//! suite pins for ≤ 12 bits, now over all 65 536 patterns of the §IV
//! sweep's widest formats.

use dp_posit::lut::split_cached;
use dp_posit::{decode, PositFormat};

#[test]
fn split_decode_matches_bitfield_for_all_65536_encodings() {
    for es in [0u32, 1, 2] {
        let fmt = PositFormat::new(16, es).unwrap();
        let lut = split_cached(fmt).expect("16-bit formats are split-table-driven");
        assert_eq!(lut.format(), fmt);
        for bits in fmt.patterns() {
            assert_eq!(lut.decode(bits), decode(fmt, bits), "{fmt} {bits:#06x}");
        }
    }
}

#[test]
fn split_decode_matches_bitfield_for_13_to_15_bit_formats() {
    for (n, es) in [(13u32, 0u32), (13, 1), (14, 2), (15, 1), (15, 6)] {
        let fmt = PositFormat::new(n, es).unwrap();
        let lut = split_cached(fmt).unwrap();
        for bits in fmt.patterns() {
            assert_eq!(lut.decode(bits), decode(fmt, bits), "{fmt} {bits:#06x}");
        }
    }
}

#[test]
fn split_decode_masks_to_width() {
    let fmt = PositFormat::new(16, 1).unwrap();
    let lut = split_cached(fmt).unwrap();
    assert_eq!(lut.decode(0x1_4000), lut.decode(0x4000), "masks to width");
}
