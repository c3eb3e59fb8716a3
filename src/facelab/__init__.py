"""facelab: a multi-model face recognition toolkit.

Three recognizers behind one small API -- eigenfaces (PCA), fisherfaces
(class-specific linear discriminants), and a top-to-bottom 1D continuous
HMM -- plus a dispatcher that profiles a probe image and routes it to the
recognizer best suited to its lighting, pose, and occlusion properties.
"""

from .archive import load_model, save_model
from .dataset import (DatasetManifest, GrayImage, SplitSpec, flatten, load_pgm,
                      scan_dataset, split, write_pgm)
from .dispatcher import (DispatchPolicy, ImageProfile, ProfileContext, profile,
                         recognize_multi, select)
from .eigenfaces import EigenDecision, EigenModel, train_eigen
from .errors import DataError, FacelabError, NumericError, SingularOrIndefinite
from .fisherfaces import FisherModel, ScatterPair, compute_scatter, train_fisher
from .hmm1d import (BlockParams, HmmModel, KltBasis, SubjectBank, baum_welch,
                    extract_blocks, fit_klt, init_uniform, loglik, observe,
                    recognize, train_bank, viterbi, viterbi_train)

__version__ = "0.1.0"
