//! Quickstart: posit arithmetic, exact accumulation, and a quantized
//! Deep Positron network in ~60 lines, on the runtime-format API.
//!
//! Run with: `cargo run --release --example quickstart`

use deep_positron::experiments::paper_tasks;
use deep_positron::{NumericFormat, QuantizedMlp};
use dp_emac::{Emac, PositEmac};
use dp_posit::{convert, ops, PositFormat, Quire};

fn main() {
    // --- 1. Posit arithmetic on bit patterns ---------------------------
    let p8 = PositFormat::new(8, 0).unwrap();
    let value = |bits| convert::to_f64(p8, bits);
    let a = convert::from_f64(p8, 1.5);
    let b = convert::from_f64(p8, 0.25);
    let (va, vb) = (value(a), value(b));
    println!("{p8}: {va} + {vb} = {}", value(ops::add(p8, a, b)));
    println!("{p8}: {va} × {vb} = {}", value(ops::mul(p8, a, b)));
    println!(
        "{p8}: maxpos = {}, minpos = {}",
        value(p8.maxpos_bits()),
        value(p8.minpos_bits())
    );

    // --- 2. Exact accumulation: the quire ------------------------------
    // maxpos·1 − maxpos·1 + minpos·1 : a rounding MAC loses the minpos.
    let fmt = PositFormat::new(8, 2).unwrap();
    let one = fmt.one_bits();
    let mut quire = Quire::new(fmt, 4);
    quire.add_product(fmt.maxpos_bits(), one);
    quire.sub_product(fmt.maxpos_bits(), one);
    quire.add_product(fmt.minpos_bits(), one);
    println!(
        "quire survives catastrophic cancellation: {} (minpos = {})",
        convert::to_f64(fmt, quire.to_posit()),
        fmt.min_value(),
    );

    // --- 3. The EMAC soft core (paper Fig. 5) --------------------------
    let mut emac = PositEmac::new(fmt, 3);
    emac.set_bias(one);
    emac.mac(fmt.one_bits(), fmt.one_bits());
    println!(
        "EMAC: bias 1.0 + 1.0×1.0 = {}",
        convert::to_f64(fmt, emac.result())
    );

    // --- 4. A Deep Positron network on Iris ----------------------------
    println!("\ntraining the Iris model (quick schedule)...");
    let tasks = paper_tasks(true, 42);
    let iris = &tasks[1];
    println!(
        "32-bit float test accuracy: {:.1}%",
        100.0 * iris.f32_test_accuracy
    );
    for format in [
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Posit(PositFormat::new(6, 0).unwrap()),
    ] {
        let q = QuantizedMlp::quantize(&iris.mlp, format);
        println!(
            "{format} EMAC inference accuracy: {:.1}%",
            100.0 * q.accuracy(&iris.split.test)
        );
    }
}
