"""Train the full model on a small synthetic corpus and watch the pieces:
greedy label construction, the mixed loss, frame-selection rewards, and the
recovered summary after overfitting."""
import tempfile

from mmsum.config import RunConfig
from mmsum.data import SynthConfig, load_dataset, load_masks, synth_generate
from mmsum.evaluation import summarize
from mmsum.model import SummarizerModel
from mmsum.training import greedy_labels, reward_div, reward_rep, train_model

with tempfile.TemporaryDirectory() as td:
    manifest = synth_generate(SynthConfig(n_samples=10, n_sentences=8, n_frames=6,
                                          feature_dim=12, vocab_size=80),
                              seed=5, out_dir=td)
    samples, vocab = load_dataset(manifest)
    split = {name: [s for s in samples if manifest.split[s.document.id] == name]
             for name in ("train", "val", "test")}

    s = split["train"][0]
    labels = greedy_labels(s.document, s.gold_summary)
    print("=== greedy labels against the gold summary ===")
    print("labels:", labels.labels, f"(labeling score {labels.score:.3f})")

    print("\n=== frame-selection rewards on raw features ===")
    frames = s.frames
    print(f"select all {frames.shape[0]} frames: "
          f"R_div={reward_div(frames, range(len(frames))):.3f} "
          f"R_rep={reward_rep(frames, range(len(frames))):.3f}")
    print(f"select frames [0, 1]:        "
          f"R_div={reward_div(frames, [0, 1]):.3f} "
          f"R_rep={reward_rep(frames, [0, 1]):.3f}")

    print("\n=== training (bihop attention, late+ fusion, dual-stream loss) ===")
    cfg = RunConfig(hidden=12, embed_dim=12, attn_dim=12, fusion_dim=12,
                    feature_dim=12, lr=0.05, epochs=30, patience=30,
                    fps_group=1, seed=0)
    result = train_model(split["train"], split["val"], cfg, len(vocab))
    for rec in result.metrics[::5]:
        print(f"epoch {rec['epoch']:3d}  loss={rec['train_loss']:7.4f}  "
              f"ce={rec['train_ce']:6.4f}  val={rec['val_loss']:6.4f}  "
              f"R_div={rec['R_div']:.3f}  R_rep={rec['R_rep']:.3f}")

    print("\n=== extraction after training ===")
    model = SummarizerModel(result.final_params, cfg, len(vocab))
    out = summarize(s, model, k_sentences=2, k_frames=2)
    mask = load_masks(manifest, s.document.id)
    print("selected sentences:", out.sentence_indices,
          "| planted:", [i for i, v in enumerate(mask["salient_sentences"]) if v])
    print("selected frames:   ", out.frame_indices,
          "| planted:", [i for i, v in enumerate(mask["salient_frames"]) if v])
