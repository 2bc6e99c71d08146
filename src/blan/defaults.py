"""Canonical default constants of the library.

Loss-weight, learning-rate and patch-grid defaults. PATCH_GRID, WEIGHT_EDGE
and WEIGHT_SYM are constants that no config sets (``PatchDiscriminatorConfig.k``
and ``LossWeights.w_edge``/``w_sym`` read them):

    ============================  =========  ==================================
    constant                      value      role
    ============================  =========  ==================================
    LAMBDA_ADV_PIXEL  (lambda1)   3e-3       weight of the pixel-level
                                             adversarial loss in the generator
                                             objective
    LAMBDA_CONS_FEATURE (lambda2) 0.02       weight of the feature
                                             reconstruction loss
    LAMBDA_ADV_FEATURE (lambda3)  3e-3       weight of the feature-level
                                             adversarial loss
    WEIGHT_EDGE                   0.1        weight of the edge loss inside the
                                             pixel reconstruction loss
    WEIGHT_SYM                    0.3        weight of the symmetry loss inside
                                             the pixel reconstruction loss
    LEARNING_RATE                 1e-4       Adam step size for all three
                                             trained networks
    PATCH_GRID (k)                2          the patch discriminator scores a
                                             k x k grid of image patches
    ============================  =========  ==================================

Desk-scale architecture defaults (every structural property of the full-size
configuration is preserved; the 128x128 configuration remains expressible).
The DP_*, F_* and DF_* widths and FEATURE_DIM are set here and nowhere else:

    IMAGE_SIZE        64      square input/output size, must be a power of two
    BASE_CHANNELS     16      first encoder width, doubled per layer
    MAX_CHANNELS      128     channel-growth cap
    DP_CONV_LAYERS    4       conv layers per patch in the pixel discriminator
    DP_BASE_CHANNELS  16      first pixel-discriminator width, doubled per layer
    FEATURE_DIM       64      length of the identity feature vector
    DF_HIDDEN         100     hidden width of the feature discriminator
    F_BASE_CHANNELS   16      first conv width of the feature extractor
    BATCH_SIZE        4
    ADAM_BETA1        0.5     conditional-GAN convention
    ADAM_BETA2        0.999
    ADAM_EPS          1e-8
    LOG_EPS           1e-7    clamp inside every log() in the GAN losses
    N_FOLDS           5       cross-validation folds of a synthetic dataset
    REFERENCE_*       128/64/512  the paper's full-size IMAGE_SIZE, BASE_CHANNELS
                                  and MAX_CHANNELS (report-only, not the test scale)
"""

LAMBDA_ADV_PIXEL = 3e-3
LAMBDA_CONS_FEATURE = 0.02
LAMBDA_ADV_FEATURE = 3e-3
WEIGHT_EDGE = 0.1
WEIGHT_SYM = 0.3
LEARNING_RATE = 1e-4
PATCH_GRID = 2

IMAGE_SIZE = 64
BASE_CHANNELS = 16
MAX_CHANNELS = 128
DP_CONV_LAYERS = 4
DP_BASE_CHANNELS = 16
FEATURE_DIM = 64
DF_HIDDEN = 100
F_BASE_CHANNELS = 16
BATCH_SIZE = 4
ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOG_EPS = 1e-7

N_FOLDS = 5

REFERENCE_IMAGE_SIZE = 128
REFERENCE_BASE_CHANNELS = 64
REFERENCE_MAX_CHANNELS = 512
