//! Golden bit fingerprints of the hf-nn hot path.
//!
//! Each constant is an FNV-1a hash over the bit patterns of the logits,
//! the `log_probs` and the flat `ForwardPass::backward` gradient of a
//! fixed model on fixed token rows. The constants were recorded before
//! the matmul kernels were register-tiled and the backward pass stopped
//! cloning, so any change to the per-output accumulation order — or to
//! any other floating-point step — moves a bit and fails this test.

use hf_nn::{LmConfig, TinyLm};

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(hash: u64, vals: &[f32]) -> u64 {
    vals.iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fixed token rows: a single token, short and mid-length rows, and a
/// row longer than every tile width so kernel tails are exercised.
fn rows(vocab: usize) -> Vec<Vec<usize>> {
    [1usize, 2, 5, 11, 17, 40]
        .iter()
        .enumerate()
        .map(|(r, &len)| (0..len).map(|t| (t * 7 + r * 3 + t * t) % vocab).collect())
        .collect()
}

/// `(logits, log_probs, gradient)` fingerprints over every row.
fn fingerprints(cfg: LmConfig) -> (u64, u64, u64) {
    let lm = TinyLm::new(cfg, 0x5eed_f00d);
    let (mut h_logits, mut h_logp, mut h_grad) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
    for ids in rows(cfg.vocab) {
        let fp = lm.forward(&ids);
        h_logits = fnv1a(h_logits, fp.tape.value(fp.logits).data());
        if ids.len() >= 2 {
            h_logp = fnv1a(h_logp, &lm.log_probs(&ids));
        }

        // A loss over every head: PPO clip on the gathered log-probs
        // (old log-probs shifted so some ratios clip), the clipped value
        // loss, and an entropy bonus.
        let t = ids.len();
        let mut fp = lm.forward(&ids);
        let targets: Vec<usize> = ids.iter().map(|&i| (i + 1) % cfg.vocab).collect();
        let logp = fp.tape.gather_log_prob(fp.logits, &targets);
        let cur: Vec<f32> = fp.tape.value(logp).data().to_vec();
        let old: Vec<f32> =
            cur.iter().enumerate().map(|(i, &v)| v + [0.0, 0.3, -0.3][i % 3]).collect();
        let adv: Vec<f32> = (0..t).map(|i| [0.8, -0.5, 0.0, 1.2][i % 4]).collect();
        let ppo = fp.tape.ppo_clip_loss(logp, &old, &adv, 0.2);
        let returns: Vec<f32> = (0..t).map(|i| i as f32 * 0.1 - 0.3).collect();
        let old_v: Vec<f32> = fp.tape.value(fp.values).data().iter().map(|v| v + 0.05).collect();
        let vloss = fp.tape.value_clip_loss(fp.values, &returns, &old_v, 0.2);
        let ent = fp.tape.mean_entropy(fp.logits);
        let vterm = fp.tape.scale(vloss, 0.5);
        let eterm = fp.tape.scale(ent, -0.01);
        let sum = fp.tape.add(ppo, vterm);
        let loss = fp.tape.add(sum, eterm);
        h_grad = fnv1a(h_grad, &fp.backward(loss));
    }
    (h_logits, h_logp, h_grad)
}

#[test]
fn tiny_lm_bits_match_golden() {
    let got = fingerprints(LmConfig::tiny());
    assert_eq!(
        got,
        (0xd51a_03ec_db28_e982, 0x222d_0d54_2e0a_86af, 0xfc0c_491e_bc23_86d6),
        "LmConfig::tiny() fingerprints moved: {got:#018x?}"
    );
}

#[test]
fn tiny_verifier_lm_bits_match_golden() {
    // The `RlhfConfig::tiny_verifier()` model: head width 16, value head
    // width 1.
    let cfg = LmConfig { vocab: 16, hidden: 32, ffn: 64, layers: 2 };
    let got = fingerprints(cfg);
    assert_eq!(
        got,
        (0xdd27_3576_7e71_b6d5, 0x8ce5_77a7_1fd7_2450, 0x4c59_93fd_631d_26c3),
        "tiny_verifier LM fingerprints moved: {got:#018x?}"
    );
}
