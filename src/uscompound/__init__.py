"""Multi-view ultrasound compounding toolkit.

Fuses co-registered B-mode images from multiple probe angles while
preserving anatomic-boundary contrast and suppressing reverberation
artifacts and shadows.
"""

from .boundary import BoundaryParams, detect_boundaries
from .compound import (PyramidParams, compound, compound_average,
                       compound_maximum, compound_pyramid, compound_ubf,
                       prepare_views)
from .confidence import AttenuationParams, attenuation_intensity_confidence
from .image import (Image, RigidTransform2D, ViewInput, WarpedView,
                    load_image, save_image, warp_to_common)
from .metrics import (Ellipse, MetricsReport, PatchSpec, amr_avr, dice,
                      fit_ellipse, otsu_threshold, segment_vessel)
from .phantom import PhantomScene, PhantomSpec, generate
from .pyramid import collapse, gaussian_pyramid, laplacian_pyramid, partial_collapse

__version__ = "0.1.0"
