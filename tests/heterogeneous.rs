//! Heterogeneous-CGRA integration tests (REVAMP-style multiplier
//! stripping): mapping respects capabilities end to end, the MII model
//! accounts for the scarcer multipliers, and verification rejects
//! violations.

use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, KernelId, KernelScale, OpKind};
use panorama_mapper::{min_ii, LowerLevelMapper, SatMapper, SprMapper, UltraFastMapper};

fn hetero_8x8() -> Cgra {
    Cgra::new(CgraConfig {
        mul_every_n_columns: 2, // multipliers in every other column
        ..CgraConfig::scaled_8x8()
    })
    .expect("valid heterogeneous config")
}

#[test]
fn multiplier_stripping_halves_mul_pes() {
    let homo = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
    let hetero = hetero_8x8();
    assert_eq!(homo.num_mul_pes(), 64);
    assert_eq!(hetero.num_mul_pes(), 32);
    assert!(hetero.has_multiplier(hetero.pe_at(0, 0)));
    assert!(!hetero.has_multiplier(hetero.pe_at(0, 1)));
}

#[test]
fn mul_bound_raises_res_mii() {
    // 40 multiplies on 8 mul-PEs → ResMII ≥ 5
    let cgra = Cgra::new(CgraConfig {
        mul_every_n_columns: 4,
        mem_left_column_only: false,
        ..CgraConfig::small_4x4()
    })
    .unwrap();
    assert_eq!(cgra.num_mul_pes(), 4);
    let mut b = panorama_dfg::DfgBuilder::new("mulheavy");
    let x = b.op(OpKind::Load, "x");
    for i in 0..12 {
        let m = b.op(OpKind::Mul, format!("m{i}"));
        b.data(x, m);
    }
    let dfg = b.build().unwrap();
    // 12 muls / 4 mul PEs = 3
    assert!(min_ii(&dfg, &cgra).res_mii >= 3);
}

#[test]
fn spr_maps_kernels_on_heterogeneous_array() {
    let cgra = hetero_8x8();
    let backends: [&dyn LowerLevelMapper; 2] = [&SprMapper::default(), &SatMapper::default()];
    for mapper in backends {
        for id in [KernelId::Fir, KernelId::MatrixMultiply] {
            let who = format!("{} on {id}", mapper.name());
            let dfg = kernels::generate(id, KernelScale::Tiny);
            let mapping = mapper
                .map(&dfg, &cgra, None)
                .unwrap_or_else(|e| panic!("{who}: {e}"));
            mapping.verify(&dfg, &cgra).unwrap();
            for op in dfg.op_ids() {
                let (kind, pe) = (dfg.op(op).kind, mapping.pe_of(op));
                if kind == OpKind::Mul {
                    assert!(cgra.has_multiplier(pe), "{who}: multiply on a plain PE");
                }
                if kind.needs_memory() {
                    assert!(cgra.is_mem_pe(pe), "{who}: memory op on a compute PE");
                }
            }
        }
    }
}

#[test]
fn ultrafast_maps_on_heterogeneous_array() {
    let cgra = hetero_8x8();
    let dfg = kernels::generate(KernelId::Conv2d, KernelScale::Tiny);
    let mapping = UltraFastMapper::default().map(&dfg, &cgra, None).unwrap();
    mapping.verify(&dfg, &cgra).unwrap();
}

#[test]
fn adl_round_trips_heterogeneity() {
    let cfg = CgraConfig {
        mul_every_n_columns: 2,
        ..CgraConfig::scaled_8x8()
    };
    let text = cfg.to_text();
    assert!(text.contains("mul columns 2"));
    assert_eq!(CgraConfig::from_text(&text).unwrap(), cfg);
}

#[test]
fn heterogeneity_costs_ii_but_saves_multipliers() {
    // the REVAMP trade-off: fewer multipliers can only raise the II
    let homo = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
    let hetero = hetero_8x8();
    let dfg = kernels::generate(KernelId::MatrixMultiply, KernelScale::Tiny);
    let m_homo = SprMapper::default().map(&dfg, &homo, None).unwrap();
    let m_het = SprMapper::default().map(&dfg, &hetero, None).unwrap();
    assert!(m_het.ii() >= m_homo.ii());
}
