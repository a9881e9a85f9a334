"""Combinatorics of comparative probability orders: construction from
utility vectors, discrete cones, flippable pairs and flips, exact
representability testing, small-n enumeration, and the Fibonacci/entropy
bounds on flippable-pair counts."""

from .bounds import (
    BoundReport,
    EntropyBound,
    FibonacciReport,
    GHCounts,
    entropy_bound,
    gh_counts,
    lambda_bracket,
    lambda_rate_bracket,
    upper_bound,
    verify_fibonacci_construction,
)
from .census import (
    CensusStats,
    OrderCensus,
    brute_force_oracle,
    census_stats,
    enumerate_orders,
    facet_counts_from_census,
    read_census,
    relabel_order,
    singleton_relabeling,
    write_census,
)
from .cones import (
    DiscreteCone,
    TernaryVector,
    characteristic_vector,
    cone_from_order,
    irreducible_elements,
)
from .errors import (
    ConeAxiomError,
    CporderError,
    DuplicateError,
    EmptySideError,
    LengthMismatchError,
    NotNeighborsError,
    NotRepresentableError,
    NotSortedError,
    RangeError,
    ResourceError,
    TieError,
    VerificationError,
)
from .flips import (
    CriticalPair,
    critical_pairs,
    flip,
    flip_neighbors,
    flippable_pairs,
    is_flippable,
)
from .orders import (
    ComparativeOrder,
    Subset,
    ValidationReport,
    insert_utility,
    lexicographic_utilities,
    maclagan_utilities,
    order_from_line,
    order_from_lines,
    order_from_utilities,
    order_to_line,
    order_to_lines,
    read_order,
    subset_sums,
    validate_order,
    write_order,
)
from .represent import (
    Certificate,
    TradingTransform,
    check_certificate,
    check_trading_transform,
    facet_count,
    find_trading_transform,
    friendly,
    is_representable,
    neighbor_witness_hint,
    unfriendly_flips,
)
from .sequences import QSequence, fibonacci, fibonacci_nearest_phi, q_value

__version__ = "0.1.0"
