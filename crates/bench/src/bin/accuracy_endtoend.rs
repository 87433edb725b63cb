//! End-to-end classification agreement under output speculation — the
//! measurable proxy for the paper's Fig. 12 accuracy-loss claims.

use sibia::speculate::endtoend::{classification_agreement, pooling_error_stats, PointNetLite};
use sibia::speculate::SliceRepr;
use sibia_bench::{header, pct, Table};

fn main() {
    header("acc", "end-task impact of output speculation");
    println!("quantized PointNet-lite (8 -> 48 -> pool -> 10 classes), 64-point clouds;");
    println!("speculation pre-computes I_H x W_H of the pooled layer\n");
    let net = PointNetLite::random(11, 8, 48, 10);
    let mut t = Table::new(&[
        "candidates",
        "agree SBR",
        "agree conv",
        "wrong-pool SBR",
        "wrong-pool conv",
    ]);
    for candidates in [16usize, 8, 4, 2, 1] {
        let sbr = classification_agreement(5, &net, 120, 64, SliceRepr::Signed, candidates);
        let conv = classification_agreement(5, &net, 120, 64, SliceRepr::Conventional, candidates);
        let (wp_sbr, _) = pooling_error_stats(5, &net, 25, 64, SliceRepr::Signed, candidates);
        let (wp_conv, _) =
            pooling_error_stats(5, &net, 25, 64, SliceRepr::Conventional, candidates);
        t.row(&[
            &candidates,
            &pct(sbr),
            &pct(conv),
            &pct(wp_sbr),
            &pct(wp_conv),
        ]);
    }
    t.print();
    println!("\n(wrong-pool = a pooled feature missed its true maximum. On this small");
    println!(" random network the SBR's edge is modest and depends on the weight draw;");
    println!(" the VoteNet-sized pools of fig12 show the 2x gap behind the paper's <2%p");
    println!(" vs collapse. This small classifier absorbs the pooled error, so argmax");
    println!(" agreement stays high for both)");
}
