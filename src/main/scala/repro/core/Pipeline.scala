package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cluster._
import repro.geo.Regions
import repro.recipedb.RecipeGen

/** End-to-end reproduction pipeline: data → pattern mining → feature
  * vectors → HAC under three metrics (Figs 2–4), authenticity HAC (Fig 5),
  * geographic HAC (Fig 6), and the quantified tree comparisons behind the
  * paper's §VII validation narrative.
  */
object Pipeline {

  val Metrics: Seq[String] = Seq("euclidean", "cosine", "jaccard")

  final case class Results(
      cuisines: IndexedSeq[String],
      patterns: Seq[PatternMiner.CuisinePatterns],
      features: PatternFeatures.Features,
      patternTrees: Map[String, Dendrogram], // one per metric
      authTree: Dendrogram,
      geoTree: Dendrogram,
      geoSimilarity: Map[String, Double], // mean Fowlkes–Mallows vs geo tree
  ) {
    def tree(metricOrAuth: String): Dendrogram =
      if (metricOrAuth == "authenticity") authTree
      else if (metricOrAuth == "geo") geoTree
      else patternTrees(metricOrAuth)

    def leafIndex(cuisine: String): Int = {
      val i = cuisines.indexOf(cuisine)
      require(i >= 0, s"unknown cuisine: $cuisine")
      i
    }
  }

  /** Run everything on an existing recipes DataFrame. */
  def run(spark: SparkSession, recipes: DataFrame,
          minSupport: Double = PatternMiner.PaperMinSupport,
          linkage: Hac.Linkage = Hac.Average): Results = {
    val patterns = PatternMiner.minePerCuisine(recipes, minSupport)
    val features = PatternFeatures.fromPatterns(patterns)
    val cuisines = features.cuisines
    val vectors = features.matrix.toSeq

    val patternTrees = Metrics.map { m =>
      m -> Hac.cluster(Distance.pdist(vectors, Distance.byName(m)), linkage)
    }.toMap

    val fp = Authenticity.fingerprints(spark, recipes)
    requireSameCuisines(cuisines, fp.cuisines)
    val authTree = Hac.cluster(Distance.pdist(fp.matrix.toSeq, Distance.euclidean), linkage)

    val geoTree = Hac.cluster(Regions.distanceMatrix(cuisines), linkage)

    val ks = 2 to math.min(12, cuisines.size - 1)
    val sims = (Metrics.map(m => m -> patternTrees(m)) :+ ("authenticity" -> authTree)).map {
      case (name, t) => name -> TreeCompare.meanFowlkesMallows(t, geoTree, ks)
    }.toMap

    Results(cuisines, patterns, features, patternTrees, authTree, geoTree, sims)
  }

  /** Both cuisine axes come sorted from the same recipes, so they can only
    * differ in membership; the error names every cuisine missing on a side.
    */
  private[core] def requireSameCuisines(mined: IndexedSeq[String], fingerprinted: IndexedSeq[String]): Unit =
    require(mined == fingerprinted,
      s"cuisines differ between pattern mining and authenticity: " +
        s"without fingerprints [${mined.diff(fingerprinted).mkString(", ")}], " +
        s"without patterns [${fingerprinted.diff(mined).mkString(", ")}]")

  /** Generate data at `sf` and run everything. */
  def runAtScale(spark: SparkSession, sf: Double, seed: Long = 42): Results =
    run(spark, RecipeGen.recipes(spark, sf, seed))
}
