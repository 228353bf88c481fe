"""End to end: learn priors from data, then out-rank the add-one baseline.

A synthetic corpus stands in for the real thing: 150 documents carry a
category label, an 8,000-document pool hides 80 more positives that the
ranking should surface. Both branches train on the same seeded samples;
the baseline classifies under add-one priors, the study branch under
priors learned by leave-one-out grid search aggregated across seeds.

Writes its artifacts (predictions, score terrain, review page, stats)
to demo_output/ next to this script.

    python demos/05_full_experiment.py
"""

from pathlib import Path

from priorlearn.experiment import (
    PRNG_NAME,
    ExperimentSpec,
    classify_corpus,
    export_review_list,
    learn_priors,
    predictions_to_csv,
)
from priorlearn.metrics import ppv_at_k
from priorlearn.model import BAYES_LAPLACE
from priorlearn.search import memo_to_csv
from priorlearn.stats import bootstrap_ci, outcome_vector, report_to_csv, significance_test
from priorlearn.synthetic import CATEGORY, make_synthetic_corpus

out = Path(__file__).parent / "demo_output"
out.mkdir(exist_ok=True)

print("-- generating the corpus --")
syn = make_synthetic_corpus(seed=0, vocab_size=1500, n_members=150, pool_size=8000)
print(f"{syn.corpus.doc_count} documents, {len(syn.truth)} hidden positives")

spec = ExperimentSpec(
    corpus=syn.corpus, categories=syn.categories, category=CATEGORY,
    seeds=(0, 1, 2), top_n=300,
)

print("\n-- learning priors (3 seeds x 9 starts, shared memos) --")
result = learn_priors(spec)
lam = result.hyperparameters
print(f"learned (lambda_neg, lambda_pos) = ({lam.lambda_neg}, {lam.lambda_pos}) "
      f"with mean leave-one-out ppv {result.mean_ppv:.3f} "
      f"after {result.evaluations} cell evaluations")
(out / "memo_mean.csv").write_text(memo_to_csv(result.mean_scores))

print("\n-- classifying the pool under both branches --")
_, baseline = classify_corpus(spec, BAYES_LAPLACE)
_, study = classify_corpus(spec, lam)
titles = dict(zip(syn.corpus.doc_ids.tolist(), syn.corpus.titles))
(out / "baseline_predictions.csv").write_text(predictions_to_csv(baseline, titles))
(out / "study_predictions.csv").write_text(predictions_to_csv(study, titles))

k = 100
ppv_base = ppv_at_k(baseline.doc_ids(), syn.truth, k)
ppv_study = ppv_at_k(study.doc_ids(), syn.truth, k)
print(f"positive predictions: baseline {baseline.positives_predicted}, "
      f"study {study.positives_predicted} (learned priors calibrate the model)")
print(f"ppv@{k}: baseline {ppv_base:.3f}, study {ppv_study:.3f}")

print("\n-- uncertainty and significance --")
v_base = outcome_vector(baseline.doc_ids(), syn.truth, k)
v_study = outcome_vector(study.doc_ids(), syn.truth, k)
ci_base = bootstrap_ci(v_base, B=10_000, alpha=0.05, seed=0)
ci_study = bootstrap_ci(v_study, B=10_000, alpha=0.05, seed=0)
p_value = significance_test(v_base, v_study)
print(f"baseline ppv@{k} 95% CI [{ci_base.lo:.3f}, {ci_base.hi:.3f}]")
print(f"study    ppv@{k} 95% CI [{ci_study.lo:.3f}, {ci_study.hi:.3f}]")
print(f"two-sided Welch t-test p = {p_value:.2g}")
(out / "report.csv").write_text(report_to_csv(
    [("baseline", k, float(v_base.mean()), ci_base), ("study", k, float(v_study.mean()), ci_study)],
    p_value,
))

print("\n-- blinded review page --")
html = export_review_list(baseline, study, titles, top_n=spec.top_n)
(out / "review.html").write_text(html)
print(f"merged top-{spec.top_n} lists into {html.count('<li>')} alphabetized links "
      f"(no scores, no model names)")
print(f"artifacts written to {out}/")
print(f"run manifest: category {spec.category!r}, seeds {list(spec.seeds)}, "
      f"starts {[list(cell) for cell in spec.starts]}, prng {PRNG_NAME}, "
      f"learned ({lam.lambda_neg}, {lam.lambda_pos}), positives predicted: "
      f"baseline {baseline.positives_predicted}, study {study.positives_predicted}")
