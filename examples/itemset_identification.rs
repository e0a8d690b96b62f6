//! Itemset-level identification (the Section 8.2 extension).
//!
//! Item-level analysis can say "items 1 and 2 are indistinguishable"
//! while the *set* {1', 2'} is still pinned down exactly — the
//! paper's Figure 6(b) observation. This example reproduces that
//! graph, then shows set-level leakage on a benchmark analog where
//! item-level risk already looks tame.
//!
//! ```text
//! cargo run --release --example itemset_identification
//! ```

use andi::core::itemsets::identify_sets;
use andi::{oestimate, Analog, BeliefFunction};

fn main() {
    // ------------------------------------------------------------------
    // Figure 6(b): four items, staggered intervals.
    // ------------------------------------------------------------------
    let supports = vec![2u64, 4, 6, 8];
    let m = 10;
    let f = |s: u64| s as f64 / m as f64;
    let belief = BeliefFunction::from_intervals(vec![
        (f(2), f(4)), // "1": could be either of the two low groups
        (f(2), f(4)), // "2": same
        (f(4), f(8)), // "3": spans the upper three groups
        (f(6), f(8)), // "4": the two high groups
    ])
    .expect("intervals are valid");
    let graph = belief.build_graph(&supports, m);

    println!("Figure 6(b):");
    println!(
        "  item-level O-estimate: {:.4} (no single item is certain)",
        oestimate(&belief, &supports, m)
    );
    let id = identify_sets(&graph);
    for block in &id.blocks {
        println!(
            "  identified set: anonymized {:?} --> originals {:?}{}",
            block.anonymized_items,
            block.original_items,
            if block.is_crack() {
                "  [outright crack]"
            } else {
                ""
            }
        );
    }
    assert_eq!(id.blocks.len(), 2, "the paper's two-pair split");

    // ------------------------------------------------------------------
    // A benchmark analog: how finely does delta_med knowledge
    // partition the domain into provably-identified sets?
    // ------------------------------------------------------------------
    let analog = Analog::Mushroom;
    let spec = analog.spec();
    let analog_supports = analog.supports();
    let (delta, b) = BeliefFunction::delta_med_compliant(&analog.frequency_groups())
        .expect("frequencies are valid");
    let g = b.build_graph(&analog_supports, spec.n_transactions);
    let id = identify_sets(&g);

    let sizes = id.block_sizes();
    let singletons = sizes.iter().filter(|&&s| s == 1).count();
    println!("\n{} analog with delta_med = {delta:.5}:", analog.name());
    println!(
        "  {} items fall into {} provably-identified blocks",
        spec.n_items,
        sizes.len()
    );
    println!(
        "  {} singleton blocks (items identified with certainty)",
        singletons
    );
    println!(
        "  largest block: {} items (the best camouflage available)",
        sizes.last().copied().unwrap_or(0)
    );
    println!(
        "  => even if item-level probabilities look small, every block \
         boundary is information the release gives away for free"
    );
}
