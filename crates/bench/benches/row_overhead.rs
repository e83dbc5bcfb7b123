//! The row-overhead cell set: SSYMV at a fixed 120 k off-diagonal pairs
//! over 2 k, 8 k and 32 k rows, fitted to `ns/row` and `ns/pair` for the
//! symmetric and naive compiled plans and the native symmetric loop
//! (see [`systec_bench::row_overhead`]). The arithmetic is the same in
//! every cell, so the `ns/row` column is what the VM spends getting
//! into and out of a row — ROADMAP item 2 tracks it.
//!
//! ```sh
//! cargo bench -p systec-bench --bench row_overhead
//! ```

use std::time::Duration;

fn main() {
    let fits =
        systec_bench::row_overhead(120_000, &[2_000, 8_000, 32_000], Duration::from_millis(600));
    println!("row overhead: ssymv, CSR, 120000 off-diagonal pairs (min of runs, us)\n");
    println!(
        "{:<10}{:>10}{:>10}{:>10}{:>12}{:>12}",
        "series", "2k", "8k", "32k", "ns/row", "ns/pair"
    );
    for fit in &fits {
        print!("{:<10}", fit.series);
        for (_, ns) in &fit.cells {
            print!("{:>10.1}", ns / 1e3);
        }
        println!("{:>12.1}{:>12.2}", fit.ns_per_row, fit.ns_per_pair);
    }
}
