"""LED to rolling-shutter camera communication: codecs, channel, decoding.

Every name is imported from its module, e.g. ``occsim.cli.main`` or
``occsim.experiment.run_link``.
"""

__version__ = "0.1.0"
