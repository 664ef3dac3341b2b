"""The entry registry of ``__ray_entry__``: the ``queries()`` names, their
``oracle_sql()`` coverage, and one entry per shared runner checked against
its DuckDB oracle on the smallest test tier (the same compare
``tools/check_parity.py`` makes)."""

import os

import pytest

SF = "/root/testdata/sf0.001"

NAMES = set(
    """
    ann_cosine_topk ann_ivf_topk asof_join best_passages bigram_counts
    bigram_lm bigram_pmi bm25_conjunctive bm25_explain
    bm25_top_hits_by_source bm25_topk bm25_topk_boolean bm25_topk_boosted
    bm25_topk_category bm25_topk_dismax bm25_topk_expanded
    bm25_topk_federated bm25_topk_filtered bm25_topk_fuzzy
    bm25_topk_incremental bm25_topk_merged bm25_topk_msm bm25_topk_must_not
    bm25_topk_page2 bm25_topk_pfor bm25_topk_prefix bm25_topk_regex
    bm25_topk_reindexed bm25_topk_removed bm25_topk_sharded
    bm25_topk_stemmed bm25_topk_stopped bm25_topk_synonyms
    bm25_topk_wildcard bpe_token_counts chunk_bm25_topk chunk_documents
    clean_corpus clean_corpus_near cms_heavy_hitters cohort_retention
    corpus_stats customer_order_counts customers_without_orders
    decontaminate dedup_central_reps dedup_clusters dedup_clusters_star
    dedup_embedding dedup_embedding_clusters dedup_embedding_ivf dedup_exact
    dedup_incremental dedup_minhash dedup_minhash_clusters dedup_pagerank
    dedup_passages dedup_simhash distinct_users_daily doc_lengths
    doc_repetition doc_top_terms doc_ttr domain_mix_sample dsir_select
    embedding_drift event_gaps events_hourly events_type_pivot
    events_type_stats extract_props_k facet_counts fingerprint funnel_counts
    gopher_filter group_sample_k grouped_price_quantiles
    grouped_quantile_sketch hard_negatives hash_split hashed_vectors
    hybrid_rrf_topk kmeans_assign kmeans_embeddings kmv_distinct_shingles
    kmv_users_daily kwic kwic_stored label_centroids lang_confusion lang_id
    lm_quality_buckets mmr_rerank_topk more_like_this more_like_this_stored
    multimodal_featurize near_dedup_corpus near_dedup_incremental
    ngram_containment ngram_jaccard ngram_novelty normalize_docs
    pack_sequences percolate_boolean percolate_conjunctive percolate_phrase
    phrase_match phrase_prefix_match pricing_rollup profile_events
    proximity_match q1_pricing_summary qld_topk range_join rank_eval
    redact_text rerank_stub_topk revenue_by_nation revenue_by_part_type
    revenue_by_region rm3_topk running_totals sessionize sliding_window
    source_lang_mix source_top_terms span_near span_near_scored span_not
    stratified_sample substring_dup_stats suggest_complete
    suggest_did_you_mean term_df term_positions text_quality
    tfidf_similar_pairs token_count_by_source tokenize_tf
    tokenizer_fertility top_orders top_orders_per_customer top_suppliers
    training_mix transcripts_bm25_timerange transcripts_bm25_topk
    transcripts_bm25_topk_role transcripts_bm25f_conv
    transcripts_boilerplate transcripts_collapse_topk transcripts_conv_stats
    transcripts_date_histogram transcripts_has_child transcripts_index_stats
    transcripts_match_stats transcripts_match_ts_stats transcripts_pack
    transcripts_phrase transcripts_rescore_recency
    transcripts_response_latency transcripts_role_transitions
    transcripts_rollover_topk transcripts_rollover_window
    transcripts_search_context transcripts_sft_pairs
    transcripts_significant_terms transcripts_sort_recent
    transcripts_sort_recent_page2 transcripts_term_vectors
    transcripts_tool_chains transcripts_tool_usage trim_repeated_windows
    uniform_sample_k unigram_lm value_outliers vocab_drift weak_label
    winnow_fingerprints
    """.split()
)

# entries that have no SQL oracle by design (iterative or stochastic ops)
ROWS_ONLY = {
    "kmeans_embeddings", "mmr_rerank_topk", "multimodal_featurize",
    "transcripts_index_stats",
}


@pytest.fixture(scope="module")
def entry_mod(tmp_path_factory):
    """``__ray_entry__`` with its index cache in a fresh directory."""
    import __ray_entry__

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(__ray_entry__, "CACHE_ROOT", str(tmp_path_factory.mktemp("graft_cache")))
        yield __ray_entry__


def test_queries_names_and_oracle_coverage(entry_mod):
    names = set(entry_mod.queries())
    assert names == NAMES
    oracles = set(entry_mod.oracle_sql())
    assert oracles <= names
    assert names - oracles == ROWS_ONLY


def test_per_query_runner_empty_and_paged(entry_mod):
    """No query with rows still gives the typed columns; a rank start given
    as a function of the query's fields numbers each query's rows from it."""
    import numpy as np
    import pyarrow as pa

    empty = entry_mod._per_query([("q1", 1)], lambda x: None, entry_mod._HITS)
    assert empty.num_rows == 0
    assert empty.schema == pa.schema(
        [("query_id", pa.string()), ("rank", pa.int64()),
         ("doc_id", pa.int64()), ("score_r", pa.float64())]
    )
    t = entry_mod._per_query(
        [("a", 3), ("b", 10)],
        lambda k: (np.array([7, 8]), np.array([1.234567, 0.5])),
        entry_mod._HITS,
        rank=lambda k: k + 1,
    )
    assert t["rank"].to_pylist() == [4, 5, 11, 12]
    assert t["score_r"].to_pylist() == [1.2346, 0.5] * 2
    unranked = entry_mod._per_query([("a", 1)], lambda k: ([5], [2]), entry_mod._MATCHES, rank=None)
    assert unranked.column_names == ["query_id", "doc_id", "n_matches"]


def test_cached_index_builds_once(entry_mod):
    calls = []

    def build(idx):
        calls.append(idx)
        os.makedirs(idx, exist_ok=True)
        with open(os.path.join(idx, "stats.json"), "w") as f:
            f.write("{}")

    a = entry_mod._cached_index(SF, "probe_index", build)
    b = entry_mod._cached_index(SF, "probe_index", build)
    assert a == b and calls == [a]


# one entry per runner: the batch runner, the per-query runner with a
# rounded score, with a paged rank start, without a rank, and with a
# non-score value column over the transcripts index
@pytest.mark.parametrize(
    "name",
    ["bm25_topk", "bm25_topk_msm", "bm25_topk_page2", "phrase_match", "transcripts_sort_recent"],
)
def test_runner_entry_matches_oracle(ray_session, entry_mod, name):
    import duckdb
    import pandas as pd

    from tools.check_parity import TABLES, canon, to_pandas

    got = canon(to_pandas(entry_mod.queries()[name](SF)))
    # the transcripts oracles read the sf0.01 synthetic corpus; point them
    # at the corpus this tier's entry read
    sql = entry_mod.oracle_sql()[name].replace(
        "/sf0.01/transcripts_2000/", "/sf0.001/transcripts_200/"
    )
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    want = canon(con.sql(sql).df())
    assert len(got) > 0
    assert list(got.columns) == list(want.columns)
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
