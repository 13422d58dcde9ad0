//! Integration tests of the hardware export paths: Verilog for every
//! benchmark's classifier and SPICE decks for every bespoke ladder.

use printed_ml::analog::ladder::Ladder;
use printed_ml::analog::spice::ladder_deck;
use printed_ml::codesign::UnaryClassifier;
use printed_ml::datasets::Benchmark;
use printed_ml::dtree::cart::train_depth_selected;
use printed_ml::logic::verilog::to_verilog;
use printed_ml::pdk::AnalogModel;

const SMALL: [Benchmark; 4] = [
    Benchmark::Seeds,
    Benchmark::Vertebral2C,
    Benchmark::Vertebral3C,
    Benchmark::BalanceScale,
];

/// Verilog export is well-formed for every benchmark's unary classifier:
/// one module, matching port and assign counts, no raw bracket identifiers.
#[test]
fn verilog_export_is_well_formed_for_all_benchmarks() {
    for benchmark in Benchmark::ALL {
        let (train, test) = benchmark.load_quantized(4).expect("built-ins load");
        let model = train_depth_selected(&train, &test, 8);
        let unary = UnaryClassifier::from_tree(&model.tree);
        let netlist = unary.to_netlist();
        let v = to_verilog(&netlist);
        assert_eq!(v.matches("module ").count(), 1, "{benchmark}");
        assert_eq!(v.matches("endmodule").count(), 1, "{benchmark}");
        assert_eq!(
            v.matches("\n  input ").count(),
            netlist.input_count(),
            "{benchmark}: one input decl per literal"
        );
        assert_eq!(
            v.matches("\n  output ").count(),
            netlist.outputs().len(),
            "{benchmark}: one output decl per class"
        );
        assert_eq!(
            v.matches("  assign ").count(),
            netlist.gate_count() + netlist.outputs().len(),
            "{benchmark}: one assign per gate plus one per output"
        );
        // Sanitization: no `[` may survive outside comments.
        for line in v.lines().filter(|l| !l.trim_start().starts_with("//")) {
            let code = line.split("//").next().expect("split never empty");
            assert!(
                !code.contains('['),
                "{benchmark}: unsanitized name in {line:?}"
            );
        }
    }
}

/// SPICE decks for every benchmark's bespoke ladder conserve total string
/// resistance and print every retained tap.
#[test]
fn spice_decks_conserve_ladder_resistance() {
    let analog = AnalogModel::egfet();
    for benchmark in SMALL {
        let (train, test) = benchmark.load_quantized(4).expect("built-ins load");
        let model = train_depth_selected(&train, &test, 8);
        let bank = UnaryClassifier::from_tree(&model.tree).adc_bank();
        let taps = bank.distinct_taps();
        let ladder = Ladder::pruned(4, &taps, analog.supply.volts(), analog.unit_resistor.ohms())
            .expect("valid taps");
        let deck = ladder_deck(&ladder, "test");
        let total: f64 = deck
            .lines()
            .filter(|l| l.starts_with('R'))
            .map(|l| {
                l.split_whitespace()
                    .last()
                    .expect("resistor value")
                    .parse::<f64>()
                    .expect("numeric ohms")
            })
            .sum();
        assert!(
            (total - ladder.total_resistance_ohms()).abs() < 1e-6,
            "{benchmark}: {total}"
        );
        assert_eq!(deck.matches(".print dc").count(), taps.len(), "{benchmark}");
    }
}

/// The exported Verilog of equivalent netlist styles has consistent port
/// shapes (same literals → same inputs).
#[test]
fn netlist_styles_share_port_shapes() {
    let (train, test) = Benchmark::Seeds.load_quantized(4).expect("built-ins load");
    let model = train_depth_selected(&train, &test, 6);
    let unary = UnaryClassifier::from_tree(&model.tree);
    let shapes: Vec<(usize, usize)> = [
        unary.to_netlist(),
        unary.to_two_level_netlist(),
        unary.to_nand_nand_netlist(),
    ]
    .iter()
    .map(|nl| (nl.input_count(), nl.outputs().len()))
    .collect();
    assert_eq!(shapes[0], shapes[1]);
    assert_eq!(shapes[1], shapes[2]);
}
