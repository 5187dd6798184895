"""Key-based randomized diversification defense against transfer attacks.

A system is a grid of J transform groups x I branches. Each channel applies
a secret keyed preprocessor (pixel permutation or a DCT sub-band operator)
and classifies with its own from-scratch MLP; the system sums per-channel
softmax vectors and takes the argmax. The secret master key is the only
information advantage over a gray-box attacker, who is left crafting
adversarial examples on a surrogate without the keyed transforms and hoping
they transfer. (The surrogate the CLI trains still shares the defender's
master key, and so channel (0, 0)'s init and shuffle.)

Modules: rng (keyed SplitMix64 streams), transforms (DCT + keyed operators),
nn (MLP training and gradients), dataio (IDX / CIFAR-10 binary loaders),
system (channel grid build/train/vote), attacks (FGSM, PGD, CW-l2 and
transfer evaluation), serialize (deterministic binary artifacts), cli
(config-driven batch runs).
"""

from .attacks import (
    ATTACK_KINDS,
    AdvSet,
    AttackConfig,
    craft_adv_set,
    cw_l2_batch,
    fgsm_batch,
    pgd_linf_batch,
    rescore_adv_set,
    train_surrogate,
    transfer_eval,
)
from .dataio import DatasetFormatError, LabeledSet, load_cifar10, load_idx, take_first
from .nn import (
    ArchSpec,
    Hyper,
    ModelParams,
    finite_difference_max_error,
    forward,
    init_params,
    mlp_arch,
    train,
)
from .rng import MasterKey, derive_subkey
from .serialize import (
    BlobFormatError,
    read_adv_set,
    read_params,
    read_system,
    save_adv_set,
    save_params,
    save_system,
)
from .system import (
    MODE_TABLE,
    MODES,
    REJECT,
    SystemSpec,
    build_system,
    classify_batch,
    predict_batch,
    rebuild_preprocessors,
    train_system,
)
from .transforms import (
    SUBBAND_IDS,
    Preprocessor,
    fold_into_weights,
    make_preprocessor,
    preprocess_batch,
    subband_rect,
)

__version__ = "0.1.0"
