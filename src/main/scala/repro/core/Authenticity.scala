package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** §V.B of the paper: authenticity-based cuisine fingerprints, after Ahn et
  * al.'s flavor-network metric.
  *
  *   prevalence          P_i^c = n_i^c / N_c
  *   relative prevalence p_i^c = P_i^c − ⟨P_i^k⟩_{k≠c}
  *
  * where n_i^c counts the recipes of cuisine c containing item i and N_c is
  * the number of recipes of cuisine c (Ahn et al.'s definition; the paper's
  * prose ambiguously says "total number of recipes in the dataset" — see
  * DESIGN.md errata). The mean over k ≠ c includes cuisines where the item
  * never occurs (P = 0).
  *
  * Spark computes only the sparse counts — N_c and the non-zero n_i^c; the
  * cuisine × item grid is small enough to fill in plain arrays on the
  * driver. [[Fingerprints.toDF]] exposes the grid in long format, which the
  * test suite oracle-checks against DuckDB.
  */
object Authenticity {

  final case class Fingerprints(
      cuisines: IndexedSeq[String],
      items: IndexedSeq[String],
      matrix: Array[Array[Double]],     // rel_prevalence, rows = cuisines
      prevalence: Array[Array[Double]], // same axes
  ) {

    /** The dense grid as (cuisine, item, prevalence, rel_prevalence) rows. */
    def toDF(spark: SparkSession): DataFrame = {
      import spark.implicits._
      val rows = for (c <- cuisines.indices; i <- items.indices)
        yield (cuisines(c), items(i), prevalence(c)(i), matrix(c)(i))
      rows.toDF("cuisine", "item", "prevalence", "rel_prevalence")
    }
  }

  /** Relative-prevalence fingerprints of every cuisine, rows sorted by
    * cuisine and columns by item so the result is deterministic. An item
    * repeated within a recipe counts once; a recipe without items still
    * counts in N_c.
    */
  def fingerprints(spark: SparkSession, recipes: DataFrame,
                   itemsCol: String = "ingredients"): Fingerprints = {
    import spark.implicits._
    val perCuisine = recipes.groupBy("cuisine").count().as[(String, Long)].collect().sortBy(_._1)
    require(perCuisine.nonEmpty, "cannot fingerprint cuisines: the recipes DataFrame is empty")
    val k = perCuisine.length
    require(k >= 2, s"relative prevalence needs at least two cuisines, got ${perCuisine.map(_._1).mkString(", ")}")
    val pairs = recipes.select(col("cuisine"), explode(array_distinct(col(itemsCol))).as("item"))
      .groupBy("cuisine", "item").count().as[(String, String, Long)].collect()

    val cuisines = perCuisine.map(_._1).toIndexedSeq
    val items = pairs.map(_._2).distinct.sorted.toIndexedSeq
    val ci = cuisines.zipWithIndex.toMap
    val ii = items.zipWithIndex.toMap
    val prev = Array.ofDim[Double](k, items.size)
    pairs.foreach { case (c, i, n) => prev(ci(c))(ii(i)) = n.toDouble / perCuisine(ci(c))._2 }
    val sums = items.indices.map(i => prev.iterator.map(_(i)).sum)
    val rel = Array.tabulate(k, items.size)((c, i) => prev(c)(i) - (sums(i) - prev(c)(i)) / (k - 1))
    Fingerprints(cuisines, items, rel, prev)
  }
}
