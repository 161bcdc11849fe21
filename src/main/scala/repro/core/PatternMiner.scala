package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.fpm.{FPGrowth, FreqItemset}

/** §IV–V.A of the paper: per-cuisine frequent pattern mining.
  *
  * Each recipe is the unordered set ingredients ++ processes ++ utensils
  * (the `items` column of the generator); FP-Growth runs once per cuisine
  * at the paper's support threshold of 0.2.
  */
object PatternMiner {

  val PaperMinSupport = 0.2

  final case class CuisinePatterns(
      cuisine: String,
      nRecipes: Long,
      itemsets: Seq[FreqItemset],
  ) {
    lazy val bySet: Map[Set[String], Double] =
      itemsets.map(fi => fi.items.toSet -> fi.support).toMap
    def supportOf(items: Set[String]): Option[Double] = bySet.get(items)
    def nPatterns: Int = itemsets.size
  }

  /** Mine every cuisine present in `recipes`, sorted by cuisine name, in
    * one Spark pass: the recipes are grouped by cuisine and each group is
    * mined inside its task with the single-tree [[FPGrowth.mine]].
    *
    * @param itemsCol which item view to mine ("items" = full paper setting)
    */
  def minePerCuisine(
      recipes: DataFrame,
      minSupport: Double = PaperMinSupport,
      itemsCol: String = "items",
  ): Seq[CuisinePatterns] = {
    val spark = recipes.sparkSession
    import spark.implicits._
    val mined = recipes.select(col("cuisine"), col(itemsCol)).as[(String, Seq[String])]
      .groupByKey(_._1)
      .mapGroups { (c, rows) =>
        val tx = rows.map(_._2).toVector
        CuisinePatterns(c, tx.size, FPGrowth.mine(tx, minSupport))
      }
      .collect().sortBy(_.cuisine)
    require(mined.nonEmpty, "cannot mine patterns: the recipes DataFrame is empty")
    mined.toSeq
  }
}
