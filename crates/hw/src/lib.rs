//! # dp-hw — analytical FPGA synthesis model for the Deep Positron EMACs
//!
//! The paper evaluates its EMAC soft cores with Vivado 2017.2 on a Virtex-7
//! `xc7vx485t` and reports maximum operating frequency (Fig. 6), energy-
//! delay product (Fig. 7), LUT utilization (Fig. 8) and the accuracy/EDP
//! trade-off (Fig. 9). This crate is the reproduction's **substitution**
//! for that toolchain: a structural cost model that
//!
//! 1. builds each EMAC datapath from primitive [`component`]s (carry-chain
//!    adders, barrel shifters, leading-zero detectors, DSP48 multipliers,
//!    registers) whose area/delay/energy are calibrated to 28 nm Virtex-7
//!    characteristics ([`calib::Calib`]), and
//! 2. mirrors the stage structure of paper Figs. 3–5 exactly
//!    ([`emacs::fixed_emac_netlist`], [`emacs::float_emac_netlist`],
//!    [`emacs::posit_emac_netlist`]), with the register widths (paper
//!    eqs. (3)–(4)), datapath rule and pipeline depth read from the
//!    priced unit's [`dp_emac::Family`].
//!
//! Because every number derives from the same small constant set plus
//! datapath structure, *relative* comparisons between formats — the
//! quantity the paper argues from — are preserved even though absolute
//! values are model-scale (recorded as such in README.md's crate map).
//!
//! ```
//! use dp_hw::{report, Calib, FormatSpec};
//! use dp_posit::PositFormat;
//!
//! let spec = FormatSpec::Posit(PositFormat::new(8, 0)?);
//! let r = report(spec, 128, Calib::default());
//! assert!(r.fmax_hz > 5e7 && r.luts > 100);
//! # Ok::<(), dp_posit::FormatError>(())
//! ```

pub mod accelerator;
pub mod calib;
pub mod component;
pub mod emacs;
pub mod netlist;
pub mod report;

pub use accelerator::{plan_accelerator, AcceleratorReport, LayerPlan};
pub use calib::Calib;
pub use component::{Component, Kind};
pub use emacs::{emac_netlist, Family, FormatSpec};
pub use netlist::{Netlist, Stage};
pub use report::{paper_grid, report, representative, EmacReport};
