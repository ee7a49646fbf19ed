"""Energy-based pixel labeling games with image enhancement, mixture-model
data terms, feature selection, and a small triplet-loss scene classifier.

The package root exports no names: import each name from its module, e.g.
``from scenegame.image import Image``."""
