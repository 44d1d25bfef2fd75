"""Entity linking between relational tables and text.

Mentions in text and tuples in relational tables are projected into one
trained joint embedding space; candidate links are retrieved with a
random-projection-forest nearest-neighbor index and evaluated as
Precision@k under seen/unseen entity splits.
"""

from .annindex import RpForest, brute_force_knn, build_forest, load_forest, query_forest, save_forest
from .config import ProjectConfig, load_config
from .corpus import (
    Corpus,
    CorpusError,
    GoldLink,
    RelationSchema,
    SplitSpec,
    Splits,
    TextMention,
    TupleRecord,
    corpus_stats,
    load_corpus_xml,
    make_splits,
    make_stratified_splits,
    parse_webnlg_entry,
)
from .linker import (
    EvalReport,
    LinkResult,
    MatchCandidate,
    bootstrap_exact_match,
    evaluate_precision,
    rank_candidates,
    semantic_link,
)
from .neural import (
    AdamState,
    DenseNet,
    EmbedderPair,
    SamplerState,
    TrainingBatch,
    gradient_check,
    gradient_step,
    pairwise_contrastive_loss,
)
from .vectorize import (
    HashingEncoder,
    KeyedVectors,
    VectorizerModel,
    embed_foreign_key,
    fit_vectorizer,
    read_vector_file,
    vectorize_attribute,
    vectorize_mention,
    vectorize_tuple,
    write_vector_file,
)

__version__ = "0.1.0"
