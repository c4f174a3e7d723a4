//! Table 3 — segmentation performance across resolution, precision and
//! camera (origin vs FlatCam images).

use criterion::{criterion_group, criterion_main, Criterion};
use eyecod_bench::experiments::{table3_segmentation, Scale};
use eyecod_bench::reporting::print_table;
use eyecod_models::proxy::{predict_seg, ProxySegNet};
use eyecod_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn print_rows() {
    let rows = table3_segmentation(Scale::Quick);
    print_table(
        "Table 3 — segmentation mIOU (proxy) + FLOPs (full spec @ paper res)",
        &[
            "model",
            "proxy res",
            "mIOU origin",
            "mIOU FlatCam",
            "FLOPs (G)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    format!("{0}x{0}", r.resolution),
                    format!("{:.3}", r.miou_origin),
                    format!("{:.3}", r.miou_flatcam),
                    format!("{:.2}", r.flops_g),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("paper (mIOU%): U-net 93.3/92.5 | RITNet@512 95.1/93.6 | @256 94.7/93.8 | @256-8b 94.0/92.8 | @128 94.1/93.5 | @128-8b 93.3/92.7");
}

fn bench(c: &mut Criterion) {
    print_rows();
    let mut rng = StdRng::seed_from_u64(0);
    let net = ProxySegNet::new(8, &mut rng);
    for res in [12usize, 24, 48] {
        let input = Tensor::ones(Shape::new(1, 1, res, res));
        c.bench_function(&format!("table3/seg_inference_{res}x{res}"), |b| {
            b.iter(|| predict_seg(&net, &input))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
