"""One job: the invariants of a (poset, field) pair, each computed once.

Reports compare independent routes to the same quantities, so many of
them need the same inputs: Betti numbers, link homology, face vectors,
the structure sheaf, the sheaf kit of a characteristic map.  A `Job`
computes each of these on first use and keeps it.  It is reached from
the poset (`SimplicialPoset.job(field)`), so no layer takes a cache
argument and the cache lives exactly as long as the poset.

The job owns the poset's local homology over its field: each integer
star complex is mapped into the field and ranked on first use.  The Betti
numbers are the homology of star 0, so a job that reads only them ranks
one star.  `link_dims`, all that `classify` needs, keeps no star's
complex, so a classification-only job (such as the F2, F3 and F5 jobs of
a report over Q) builds no restriction matrix.  The first read of the
structure sheaf builds it, with its empty-face stalk, from profiles that
rank no star twice, releases the local homology, and ranks the sheaf's
untruncated complex at once, whose d∘d check certifies the sheaf: every
reader (its cohomology, `constancy`, the kits, the face ring) gets a
checked sheaf.  Besides dimensions, reports and pages the job keeps the
structure sheaf and its profile, the profile of the cellular chains,
whose classes the sheaf kits read, and the kits.
"""
from __future__ import annotations

from functools import cached_property

from .complexes import GradedComplex, HomologyProfile, cellular_chain_complex, classify_of
from .errors import InputError
from .facevec import face_vectors_of
from .sheaves import LocalHomologyData, constancy_check, sheaf_cohomology, truncated_dims
from .specseq import cone_profile_of, pages_of


class Job:
    """Lazily computed invariants of one (poset, field) pair.

    Use `S.job(field)` to get the poset's shared job; a `Job` built
    directly caches only for its own holder.  `kit` and `charmap_report`
    import `torusalg` when first called, so a job without a characteristic
    map never loads it.
    """

    def __init__(self, S, field):
        self.S = S
        self.field = field
        self._pages = {}
        self._charmap_reports = {}
        self._kits = {}

    @cached_property
    def reduced_betti(self) -> dict:
        """Reduced Betti numbers of |S|, degrees -1..n-1: the homology of star 0."""
        return dict(self.local_homology.dims(0))

    @cached_property
    def betti(self) -> dict:
        """Betti numbers of |S|: the augmentation removes one class in degree 0."""
        return {d: self.reduced_betti[d] + (d == 0) for d in range(self.S.n)}

    @cached_property
    def local_homology(self) -> LocalHomologyData:
        """The homology of every star complex, each ranked on first read.

        Released once the structure sheaf is built; a later read ranks
        the stars again.
        """
        return LocalHomologyData(self.S, self.field)

    @cached_property
    def link_dims(self) -> tuple:
        """Dimensions of H_*(S, S minus st j) per element j (index 0: S itself)."""
        local = self.local_homology
        return tuple(dict(local.dims(j)) for j in range(self.S.size))

    @cached_property
    def _structure(self) -> tuple:
        """The structure sheaf, with its empty-face stalk, and the profile of
        its untruncated complex, built together: the complex's shape and
        d∘d checks certify the sheaf before any reader gets it.  Releases
        `local_homology`."""
        if not self.S.is_pure():
            raise InputError("structure sheaf needs a pure poset")
        self.link_dims                  # read before the profiles go
        self.reduced_betti
        sheaf = self.local_homology.structure_sheaf()
        vars(self).pop("local_homology", None)
        return sheaf, sheaf_cohomology(sheaf)

    def structure_sheaf(self):
        """The structure sheaf, with its empty-face stalk."""
        return self._structure[0]

    @property
    def structure_profile(self) -> HomologyProfile:
        """The untruncated cohomology of the structure sheaf."""
        return self._structure[1]

    @cached_property
    def structure_cohomology(self) -> dict:
        """Truncated cohomology dimensions of the structure sheaf, degrees 0..n-1."""
        return truncated_dims(self.structure_profile)

    @cached_property
    def chain_homology(self) -> HomologyProfile:
        """Homology of the unreduced cellular chains of S: star 0 without d_0."""
        cx = cellular_chain_complex(self.S, self.field)
        diff = {d: m for d, m in cx.diff.items() if d}
        return HomologyProfile(GradedComplex(cx.field, cx.dims, diff, -1, cx.labels), self.betti)

    @cached_property
    def classify(self):
        return classify_of(self)

    @cached_property
    def face_vectors(self):
        return face_vectors_of(self)

    @cached_property
    def cone_profile(self):
        return cone_profile_of(self)

    @cached_property
    def constancy(self):
        """Constancy (orientability) of the structure sheaf on its nonempty faces."""
        return constancy_check(self.structure_sheaf())

    def pages(self, P):
        """The first, second and limit pages for the profile P."""
        key = (P.n, tuple(P.bQ), tuple(P.bQrel), tuple(P.rank_delta), P.source)
        if key not in self._pages:
            self._pages[key] = pages_of(self, P)
        return self._pages[key]

    def charmap_report(self, cmap):
        """`validate_charmap` of the characteristic map on this pair."""
        from .torusalg import charmap_report_of
        key = cmap.key()
        if key not in self._charmap_reports:
            self._charmap_reports[key] = charmap_report_of(self.S, cmap, self.field)
        return self._charmap_reports[key]

    def kit(self, cmap) -> "TorusSheafKit":
        """The sheaf kit of the characteristic map; raises if it is invalid.

        The verify checks read its dimension tables and the face ring its
        determinant coefficients, so both use the same top forms."""
        from .torusalg import TorusSheafKit
        key = cmap.key()
        if key not in self._kits:
            self._kits[key] = TorusSheafKit(self.S, cmap, self.field)
        return self._kits[key]
