"""Former home of the sharded store, now ``SketchStore(num_shards=...)``.

The end-to-end benchmark (``e2ebench/``) still imports this module, builds
``ShardedSketchStore(num_shards=8, budget_bytes=...)`` and wraps
``ShardedSketchStore.get`` by looking it up in the class ``__dict__``. An
alias of the one store class keeps all of that working; a subclass would
not, since it would have no ``get`` of its own. Everything else uses
:class:`~repro.catalog.store.SketchStore`.
"""

from repro.catalog.store import SketchStore

ShardedSketchStore = SketchStore
