"""Band-partitioned co-occurrence priors for UI layout detection."""

__version__ = "0.1.0"

from .core import (BBox, ClassVocabulary, Component, LayoutDocument,
                   LayoutPriorError, ParseError, ProposalBatch, ShapeError,
                   load_matrix, matmul, row_softmax, save_matrix)
from .ingest import Corpus, load_native, save_native
from .prior import (BandConfig, CoOccurrenceGraphSet, accumulate,
                    band_membership, build_prior, load_graphs, normalize,
                    save_graphs)
from .conditioning import (AssociationKind, AssociationPolicy, MappingPolicy,
                           NodeFeatures, band_association, concat_features,
                           condition_features, soft_mapping)
# `rescore` the function is not imported here: it would shadow the
# `layoutprior.rescore` submodule.
from .rescore import RescoreConfig, labels_to_logits, rescore_corpus
from .evaluation import EvalReport, evaluate, precision_recall
from .synth import GeneratorSpec, generate, recovery_score
from .render import render_layout_svg
