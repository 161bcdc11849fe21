package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.cluster._
import repro.core.{Authenticity, PatternFeatures, PatternMiner, Pipeline}
import repro.geo.Regions

/** What one iteration produced, in the shape every check reads. */
final case class Outcome(
    cuisines: IndexedSeq[String],
    patterns: Seq[PatternMiner.CuisinePatterns],
    universe: Int,
    trees: Map[String, Dendrogram], // per metric, plus "authenticity" when computed
    fm: Map[String, Double],        // mean Fowlkes–Mallows vs the geography tree
    fingerprints: Option[Authenticity.Fingerprints],
) {
  def newick: Map[String, String] = trees.map { case (k, t) => k -> t.newick(cuisines) }
}

/** The call sequences a timed iteration makes. Every call into a module's
  * public function is wrapped in a span named after the layer; with
  * [[Tracer.Off]] the same code runs untraced.
  */
object Calls {

  val Linkage: Hac.Linkage = Hac.Average

  /** `Pipeline.run` as the program ships it: the untraced paper path. */
  def pipeline(spark: SparkSession, recipes: DataFrame, minSupport: Double): Outcome = {
    val r = Pipeline.run(spark, recipes, minSupport, Linkage)
    Outcome(r.cuisines, r.patterns, r.features.patternUniverse.size,
      r.patternTrees + ("authenticity" -> r.authTree), r.geoSimilarity, None)
  }

  /** `Pipeline.run` split into its module calls. It must reproduce
    * [[pipeline]]'s trees and FM values exactly; the benchmark checks that.
    */
  def paper(t: Tracer, spark: SparkSession, recipes: DataFrame, minSupport: Double): Outcome = {
    val (cuisines, patterns, features, trees) = patternTrees(t, recipes, minSupport)
    val fp = t.span("core.Authenticity")(Authenticity.fingerprints(spark, recipes))
    require(fp.cuisines == cuisines, s"cuisine order mismatch: ${fp.cuisines} vs $cuisines")
    val auth = cluster(t, fp.matrix.toSeq, Distance.euclidean)
    val all = trees + ("authenticity" -> auth)
    Outcome(cuisines, patterns, features.patternUniverse.size, all, fmVsGeo(t, cuisines, all), Some(fp))
  }

  /** The pattern path only, at a low support: mining, features, three
    * pattern trees and the k-means elbow sweep. Authenticity is never called.
    */
  def deepMine(t: Tracer, recipes: DataFrame, minSupport: Double): Outcome = {
    val (cuisines, patterns, features, trees) = patternTrees(t, recipes, minSupport)
    t.span("cluster.KMeans.elbow")(KMeans.elbow(features.matrix, 1 to 10))
    Outcome(cuisines, patterns, features.patternUniverse.size, trees, Map.empty, None)
  }

  private def patternTrees(t: Tracer, recipes: DataFrame, minSupport: Double) = {
    val patterns = t.span("core.PatternMiner")(PatternMiner.minePerCuisine(recipes, minSupport))
    val features = t.span("core.PatternFeatures")(PatternFeatures.fromPatterns(patterns))
    val vectors = features.matrix.toSeq
    val trees = Pipeline.Metrics.map(m => m -> cluster(t, vectors, Distance.byName(m))).toMap
    (features.cuisines, patterns, features, trees)
  }

  private def cluster(t: Tracer, vectors: Seq[Array[Double]], metric: Distance.Metric): Dendrogram = {
    val d = t.span("cluster.Distance.pdist")(Distance.pdist(vectors, metric))
    t.span("cluster.Hac.cluster")(Hac.cluster(d, Linkage))
  }

  /** Mean FM of each tree against the geography tree over cuts k = 2..12,
    * as `Pipeline.run` computes it.
    */
  def fmVsGeo(t: Tracer, cuisines: IndexedSeq[String], trees: Map[String, Dendrogram]): Map[String, Double] = {
    val geoDist = t.span("geo.Regions.distanceMatrix")(Regions.distanceMatrix(cuisines))
    val geo = t.span("cluster.Hac.cluster")(Hac.cluster(geoDist, Linkage))
    val ks = 2 to math.min(12, cuisines.size - 1)
    trees.map { case (name, tree) =>
      name -> t.span("cluster.TreeCompare.meanFowlkesMallows")(TreeCompare.meanFowlkesMallows(tree, geo, ks))
    }
  }
}
